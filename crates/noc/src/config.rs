//! NoC configuration.

use ra_sim::{ConfigError, MeshShape, MessageClass};

use crate::chiplet::ChipletSpec;
use crate::fault::FaultPlan;
use crate::router::{MAX_PORTS, MAX_VCS, MAX_VC_DEPTH};

/// Network topology of the cycle-level NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// 2-D mesh; XY routing is deadlock-free with a single VC class.
    Mesh,
    /// Concentrated mesh: `concentration` nodes share each router.
    CMesh {
        /// Endpoints attached to every router (e.g. 4 for a 2x2 block).
        concentration: u32,
    },
}

/// Complete configuration of the cycle-level NoC. Routing is
/// dimension-order, X first, then Y: deadlock-free on a mesh and a
/// concentrated mesh with one VC class.
///
/// Construct with [`NocConfig::new`] and customize via the `with_*` methods,
/// then validate/build a network with
/// [`NocNetwork::new`](crate::NocNetwork::new).
///
/// # Example
///
/// ```
/// use ra_noc::NocConfig;
///
/// let cfg = NocConfig::new(8, 8).with_vcs_per_vnet(4).with_vc_depth(4);
/// assert_eq!(cfg.shape.nodes(), 64);
/// cfg.validate().expect("valid configuration");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Node grid shape (for CMesh this is the *node* grid; the router grid
    /// is derived by dividing columns by the concentration).
    pub shape: MeshShape,
    /// Topology kind.
    pub topology: TopologyKind,
    /// Virtual channels per virtual network (message class).
    pub vcs_per_vnet: u32,
    /// Buffer depth of each VC, in flits.
    pub vc_depth: u32,
    /// Link width: bytes carried per flit.
    pub flit_bytes: u32,
    /// Link traversal latency in cycles (>= 1).
    pub link_latency: u32,
    /// Seed for the randomness of scripted faults (flaky-link coin flips).
    pub seed: u64,
    /// Scripted hardware faults (empty = fault-free).
    pub faults: FaultPlan,
    /// Clock-gate quiescent routers: the engines skip routers with no work
    /// in flight. A pure schedule optimization — simulated results are
    /// bit-identical with gating on or off (the determinism tests enforce
    /// it) — so it defaults to on; turning it off forces the engines to
    /// sweep every router every cycle, which is only useful as the
    /// reference schedule in tests and benchmarks.
    pub clock_gating: bool,
    /// Multi-die extension: replicate this configuration into N islands
    /// joined by an interposer (see
    /// [`ChipletSpec`](crate::chiplet::ChipletSpec)). `None` (the
    /// default) is a single die. A config carrying a spec must be built
    /// with [`ChipletNetwork::new`](crate::chiplet::ChipletNetwork::new);
    /// [`NocNetwork::new`](crate::NocNetwork::new) rejects it.
    pub chiplet: Option<ChipletSpec>,
}

impl NocConfig {
    /// Creates a configuration for a `cols x rows` mesh with the defaults
    /// used throughout the evaluation: 4 VCs x 4 flits per virtual network,
    /// 16-byte flits, 1-cycle links, XY routing.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero (use [`MeshShape::new`] directly
    /// for fallible construction).
    pub fn new(cols: u32, rows: u32) -> Self {
        NocConfig {
            shape: MeshShape::new(cols, rows).expect("mesh dimensions must be positive"),
            topology: TopologyKind::Mesh,
            vcs_per_vnet: 4,
            vc_depth: 4,
            flit_bytes: 16,
            link_latency: 1,
            seed: 0,
            faults: FaultPlan::default(),
            clock_gating: true,
            chiplet: None,
        }
    }

    /// Sets the topology.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the number of VCs per virtual network.
    #[must_use]
    pub fn with_vcs_per_vnet(mut self, vcs: u32) -> Self {
        self.vcs_per_vnet = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits.
    #[must_use]
    pub fn with_vc_depth(mut self, depth: u32) -> Self {
        self.vc_depth = depth;
        self
    }

    /// Sets the flit width in bytes.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: u32) -> Self {
        self.flit_bytes = bytes;
        self
    }

    /// Sets the link latency in cycles.
    #[must_use]
    pub fn with_link_latency(mut self, cycles: u32) -> Self {
        self.link_latency = cycles;
        self
    }

    /// Sets the randomness seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection script (see [`FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables or disables idle-router clock gating (on by default).
    #[must_use]
    pub fn with_clock_gating(mut self, enabled: bool) -> Self {
        self.clock_gating = enabled;
        self
    }

    /// Turns this single-die configuration into the per-island template
    /// of an N-island chiplet system (see
    /// [`ChipletSpec`](crate::chiplet::ChipletSpec)).
    #[must_use]
    pub fn with_chiplet(mut self, spec: ChipletSpec) -> Self {
        self.chiplet = Some(spec);
        self
    }

    /// Router count implied by the shape and topology (CMesh concentrates
    /// `concentration` nodes onto one router).
    pub fn routers(&self) -> u32 {
        match self.topology {
            TopologyKind::CMesh { concentration } if concentration > 0 => {
                (self.shape.nodes() as u32) / concentration
            }
            _ => self.shape.nodes() as u32,
        }
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when:
    ///
    /// * any sizing parameter is zero;
    /// * the topology is a CMesh whose concentration does not evenly divide
    ///   the node grid columns and rows;
    /// * a router's state cannot index it: over 64 VCs per port (21 per vnet),
    ///   32 ports (concentration 28), a depth of 255, or 65,536 routers.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_vnet == 0 {
            return Err(ConfigError::new("vcs_per_vnet must be positive"));
        }
        if self.vc_depth == 0 {
            return Err(ConfigError::new("vc_depth must be positive"));
        }
        if self.flit_bytes == 0 {
            return Err(ConfigError::new("flit_bytes must be positive"));
        }
        if self.link_latency == 0 {
            return Err(ConfigError::new("link_latency must be at least 1 cycle"));
        }
        if let TopologyKind::CMesh { concentration } = self.topology {
            if concentration == 0 {
                return Err(ConfigError::new("concentration must be positive"));
            }
            if !self.shape.nodes().is_multiple_of(concentration as usize) {
                return Err(ConfigError::new(format!(
                    "concentration {concentration} must divide node count {}",
                    self.shape.nodes()
                )));
            }
            if !self.shape.cols().is_multiple_of(concentration) {
                return Err(ConfigError::new(format!(
                    "concentration {concentration} must divide mesh columns {}",
                    self.shape.cols()
                )));
            }
        }
        // What a router's state can index: `u64` VC masks, `u32` port masks,
        // `u8` ring indices, and `u16` flit destinations.
        let concentration = match self.topology {
            TopologyKind::CMesh { concentration } => concentration as usize,
            _ => 1,
        };
        let vcs = self.vcs_per_vnet as usize * MessageClass::COUNT;
        for (name, value, max) in [
            ("VCs per port", vcs, MAX_VCS as usize),
            ("vc_depth", self.vc_depth as usize, MAX_VC_DEPTH as usize),
            ("ports per router", concentration + 4, MAX_PORTS as usize),
            ("routers", self.shape.nodes() / concentration, 1 << 16),
        ] {
            if value > max {
                return Err(ConfigError::new(format!("{name} {value} exceeds {max}")));
            }
        }
        self.faults.validate()?;
        self.faults.validate_routers(self.routers())?;
        if let Some(spec) = &self.chiplet {
            spec.validate(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(NocConfig::new(4, 4).validate().is_ok());
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(NocConfig::new(4, 4).with_vcs_per_vnet(0).validate().is_err());
        assert!(NocConfig::new(4, 4).with_vc_depth(0).validate().is_err());
        assert!(NocConfig::new(4, 4).with_flit_bytes(0).validate().is_err());
        assert!(NocConfig::new(4, 4).with_link_latency(0).validate().is_err());
    }

    #[test]
    fn fault_plan_is_validated_with_the_config() {
        let bad_dir = NocConfig::new(4, 4).with_faults(FaultPlan::new().kill_link(0, 9, 0));
        assert!(bad_dir.validate().is_err());
        let bad_router = NocConfig::new(4, 4).with_faults(FaultPlan::new().kill_link(99, 0, 0));
        assert!(bad_router.validate().is_err());
        let good = NocConfig::new(4, 4).with_faults(FaultPlan::new().kill_link(5, 0, 100));
        assert!(good.validate().is_ok());
    }

    #[test]
    fn router_count_accounts_for_concentration() {
        assert_eq!(NocConfig::new(4, 4).routers(), 16);
        let cmesh = NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 2 });
        assert_eq!(cmesh.routers(), 16);
    }

    #[test]
    fn at_most_64_vcs_per_port() {
        let cfg = |vcs| NocConfig::new(4, 4).with_vcs_per_vnet(vcs);
        assert!(cfg(21).validate().is_ok());
        assert!(cfg(22).validate().is_err());
    }

    #[test]
    fn vc_depth_fits_the_ring_index() {
        assert!(NocConfig::new(4, 4).with_vc_depth(255).validate().is_ok());
        assert!(NocConfig::new(4, 4).with_vc_depth(256).validate().is_err());
    }

    #[test]
    fn at_most_32_router_ports() {
        let cmesh =
            |c| NocConfig::new(56, 2).with_topology(TopologyKind::CMesh { concentration: c });
        assert!(cmesh(28).validate().is_ok());
        assert!(cmesh(56).validate().is_err());
    }

    #[test]
    fn at_most_65536_routers() {
        assert!(NocConfig::new(256, 256).validate().is_ok());
        assert!(NocConfig::new(256, 257).validate().is_err());
        let cmesh =
            NocConfig::new(512, 256).with_topology(TopologyKind::CMesh { concentration: 2 });
        assert!(cmesh.validate().is_ok());
    }

    #[test]
    fn cmesh_concentration_must_divide() {
        let bad = NocConfig::new(6, 4).with_topology(TopologyKind::CMesh { concentration: 4 });
        assert!(bad.validate().is_err());
        let good = NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 4 });
        assert!(good.validate().is_ok());
    }
}

//! Full-system configuration.

use ra_sim::{ConfigError, MeshShape, NodeId};

/// Configuration of the tiled-CMP full-system simulator.
///
/// Every tile holds a core, a private L1, a bank of the shared distributed
/// L2 with its directory slice, and (on designated tiles) a memory
/// controller.
///
/// # Example
///
/// ```
/// use ra_fullsys::FullSysConfig;
///
/// let cfg = FullSysConfig::new(8, 8);
/// assert_eq!(cfg.tiles(), 64);
/// assert_eq!(cfg.mc_nodes().len(), 4);
/// cfg.validate().expect("valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FullSysConfig {
    /// Tile grid (must match the network's node grid).
    pub shape: MeshShape,
    /// Cache-line size in bytes (power of two).
    pub line_bytes: u32,
    /// L1 sets.
    pub l1_sets: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Store-buffer depth per core.
    pub store_buffer: u32,
    /// Number of memory controllers, spread along the top and bottom rows.
    pub mem_controllers: u32,
    /// Directory/L2-bank request processing latency (cycles).
    pub dir_latency: u32,
    /// L2 data-array hit latency (cycles).
    pub l2_hit_latency: u32,
    /// DRAM access latency at a memory controller (cycles).
    pub dram_latency: u32,
    /// Memory-controller service interval: cycles between request starts
    /// (models DRAM bandwidth).
    pub mc_service: u32,
    /// Probability that an L2 access to a previously-fetched line still
    /// misses (models finite L2 capacity without recall traffic; see
    /// DESIGN.md).
    pub l2_miss_prob: f64,
    /// Control-message payload bytes (requests, acks, invalidations).
    pub ctrl_bytes: u32,
    /// Data-message payload bytes (cache line + header).
    pub data_bytes: u32,
    /// Seed for tile-local randomness (capacity-miss draws).
    pub seed: u64,
    /// Chiplet islands the tile grid is partitioned into (1 = monolithic
    /// die). When greater than 1, cache lines are homed island-locally so
    /// directory traffic stays on-die and only sharing crosses the
    /// interposer; must divide the tile count.
    pub islands: u32,
}

impl FullSysConfig {
    /// Creates the default target configuration for a `cols x rows` CMP.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u32, rows: u32) -> Self {
        FullSysConfig {
            shape: MeshShape::new(cols, rows).expect("tile grid must be non-empty"),
            line_bytes: 64,
            l1_sets: 64,
            l1_ways: 4,
            store_buffer: 8,
            mem_controllers: 4,
            dir_latency: 2,
            l2_hit_latency: 6,
            dram_latency: 60,
            mc_service: 4,
            l2_miss_prob: 0.05,
            ctrl_bytes: 8,
            data_bytes: 72,
            seed: 0,
            islands: 1,
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.shape.nodes()
    }

    /// Nodes hosting memory controllers: spread along the bottom row, then
    /// the top row.
    pub fn mc_nodes(&self) -> Vec<NodeId> {
        let count = self.mem_controllers.min(self.shape.cols() * 2).max(1);
        let cols = self.shape.cols();
        let rows = self.shape.rows();
        let mut nodes = Vec::with_capacity(count as usize);
        let per_row = count.div_ceil(2);
        for i in 0..count {
            let (row, idx, width) = if i < per_row {
                (0, i, per_row)
            } else {
                (rows - 1, i - per_row, count - per_row)
            };
            // Spread `width` controllers evenly across `cols` columns.
            let col = ((2 * idx as u64 + 1) * cols as u64 / (2 * width as u64)) as u32;
            nodes.push(self.shape.node_at(col.min(cols - 1), row));
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Home tile of a cache line (address-interleaved).
    ///
    /// On a chiplet target (`islands > 1`) the interleave is hierarchical:
    /// the line picks an island first, then a tile within it, so each
    /// island homes an equal slice of the address space on its own die.
    /// With `islands == 1` this is the plain modulo interleave.
    pub fn home_of(&self, line: u64) -> NodeId {
        let tiles = self.tiles() as u64;
        if self.islands <= 1 {
            return NodeId((line % tiles) as u32);
        }
        let islands = u64::from(self.islands);
        let per_island = tiles / islands;
        let island = (line / per_island) % islands;
        NodeId((island * per_island + line % per_island) as u32)
    }

    /// Memory controller node serving a line.
    pub fn mc_of(&self, line: u64) -> NodeId {
        let mcs = self.mc_nodes();
        mcs[(line / self.tiles() as u64) as usize % mcs.len()]
    }

    /// Byte address to cache-line index.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.line_bytes)
    }

    /// Checks parameters for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any sizing parameter is zero, the line
    /// size is not a power of two, or `l2_miss_prob` is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new("line_bytes must be a power of two"));
        }
        if self.l1_sets == 0 || self.l1_ways == 0 {
            return Err(ConfigError::new("L1 geometry must be non-zero"));
        }
        if self.store_buffer == 0 {
            return Err(ConfigError::new("store buffer must hold at least 1 entry"));
        }
        if self.mem_controllers == 0 {
            return Err(ConfigError::new("need at least one memory controller"));
        }
        if !(0.0..=1.0).contains(&self.l2_miss_prob) {
            return Err(ConfigError::new("l2_miss_prob must be in [0, 1]"));
        }
        if self.mc_service == 0 || self.dram_latency == 0 {
            return Err(ConfigError::new("memory timing must be positive"));
        }
        if self.islands == 0 {
            return Err(ConfigError::new("need at least one island"));
        }
        if !self.tiles().is_multiple_of(self.islands as usize) {
            return Err(ConfigError::new(
                "island count must divide the tile count evenly",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(FullSysConfig::new(4, 4).validate().is_ok());
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut cfg = FullSysConfig::new(4, 4);
        cfg.line_bytes = 48;
        assert!(cfg.validate().is_err());
        let mut cfg = FullSysConfig::new(4, 4);
        cfg.l2_miss_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FullSysConfig::new(4, 4);
        cfg.mem_controllers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mc_nodes_sit_on_edge_rows() {
        let cfg = FullSysConfig::new(8, 8);
        let mcs = cfg.mc_nodes();
        assert_eq!(mcs.len(), 4);
        for mc in &mcs {
            let (_, y) = cfg.shape.coords(*mc);
            assert!(y == 0 || y == 7, "MC {mc} not on an edge row");
        }
    }

    #[test]
    fn mc_nodes_are_distinct_even_when_many() {
        let cfg = {
            let mut c = FullSysConfig::new(8, 8);
            c.mem_controllers = 8;
            c
        };
        let mcs = cfg.mc_nodes();
        assert_eq!(mcs.len(), 8);
    }

    #[test]
    fn homes_cover_all_tiles() {
        let cfg = FullSysConfig::new(4, 4);
        let homes: std::collections::HashSet<_> =
            (0..64u64).map(|l| cfg.home_of(l)).collect();
        assert_eq!(homes.len(), 16);
    }

    #[test]
    fn island_homing_keeps_lines_on_die() {
        // 4x8 grid = two stacked 4x4 islands (tiles 0..16 and 16..32).
        let mut cfg = FullSysConfig::new(4, 8);
        cfg.islands = 2;
        cfg.validate().expect("valid chiplet config");
        for line in 0..128u64 {
            let home = cfg.home_of(line).0 as u64;
            let island = (line / 16) % 2;
            assert_eq!(home / 16, island, "line {line} homed off its island");
        }
        // Every tile is still somebody's home.
        let homes: std::collections::HashSet<_> =
            (0..128u64).map(|l| cfg.home_of(l)).collect();
        assert_eq!(homes.len(), 32);
    }

    #[test]
    fn islands_must_divide_tiles() {
        let mut cfg = FullSysConfig::new(4, 4);
        cfg.islands = 3;
        assert!(cfg.validate().is_err());
        cfg.islands = 0;
        assert!(cfg.validate().is_err());
        cfg.islands = 2;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn lines_map_to_mcs_consistently() {
        let cfg = FullSysConfig::new(4, 4);
        let mcs = cfg.mc_nodes();
        for l in 0..100u64 {
            assert!(mcs.contains(&cfg.mc_of(l)));
        }
    }

    #[test]
    fn line_of_uses_line_size() {
        let cfg = FullSysConfig::new(4, 4);
        assert_eq!(cfg.line_of(0), 0);
        assert_eq!(cfg.line_of(63), 0);
        assert_eq!(cfg.line_of(64), 1);
    }
}

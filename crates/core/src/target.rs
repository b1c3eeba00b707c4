//! Target-machine presets (the paper's Table 1).

use ra_fullsys::FullSysConfig;
use ra_noc::{ChipletSpec, InterposerClass, NocConfig};
use ra_sim::ConfigError;

/// A complete target-machine description: the full-system configuration and
/// the matching NoC configuration.
///
/// # Example
///
/// ```
/// use ra_cosim::Target;
///
/// let t = Target::preset(256).expect("preset exists");
/// assert_eq!(t.cores(), 256);
/// assert_eq!(t.noc.shape, t.fullsys.shape);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Human-readable name, e.g. `"256-core"`.
    pub name: String,
    /// Tiled-CMP configuration.
    pub fullsys: FullSysConfig,
    /// Cycle-level NoC configuration.
    pub noc: NocConfig,
}

impl Target {
    /// Builds a target for a `cols x rows` CMP with the evaluation's
    /// default parameters (4 VCs x 4 flits, 16-byte links, XY mesh, MESI,
    /// 4-8 memory controllers).
    pub fn cmp(cols: u32, rows: u32) -> Target {
        let mut fullsys = FullSysConfig::new(cols, rows);
        fullsys.mem_controllers = if cols * rows >= 256 { 8 } else { 4 };
        let noc = NocConfig::new(cols, rows)
            .with_vcs_per_vnet(4)
            .with_vc_depth(4)
            .with_flit_bytes(16)
            .with_link_latency(1);
        Target {
            name: format!("{}-core", cols * rows),
            fullsys,
            noc,
        }
    }

    /// Builds a chiplet target: `islands` dies, each a `cols x rows` mesh
    /// island with the evaluation's default NoC parameters, joined by an
    /// interposer of the given class.
    ///
    /// The full system sees one flat `cols x (rows * islands)` tile grid
    /// whose directory homes are interleaved hierarchically — a line's home
    /// stays on the die of the tiles that index it — so tile `t` lives on
    /// island `t / (cols * rows)`, matching the NoC's island numbering.
    pub fn chiplet(islands: u32, cols: u32, rows: u32, interposer: InterposerClass) -> Target {
        let tiles = islands * cols * rows;
        let mut fullsys = FullSysConfig::new(cols, rows * islands);
        fullsys.islands = islands;
        fullsys.mem_controllers = if tiles >= 256 { 8 } else { 4 };
        let noc = NocConfig::new(cols, rows)
            .with_vcs_per_vnet(4)
            .with_vc_depth(4)
            .with_flit_bytes(16)
            .with_link_latency(1)
            .with_chiplet(ChipletSpec::new(islands, interposer));
        Target {
            name: format!("{islands}x{}-chiplet-{}", cols * rows, interposer.name()),
            fullsys,
            noc,
        }
    }

    /// Parses the `--chiplet` flag syntax shared by the bench binaries:
    /// `<islands>x<cols>x<rows>[,interposer=<class>]` (interposer
    /// defaults to silicon).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the malformed part.
    pub fn from_chiplet_spec(spec: &str) -> Result<Target, ConfigError> {
        let mut parts = spec.split(',');
        let grid = parts.next().unwrap_or_default();
        let dims: Vec<&str> = grid.split('x').collect();
        let [islands, cols, rows] = dims[..] else {
            return Err(ConfigError::new(format!(
                "expected <islands>x<cols>x<rows>, got `{grid}`"
            )));
        };
        let dim = |name: &str, text: &str| {
            text.parse::<u32>().ok().filter(|d| *d > 0).ok_or_else(|| {
                ConfigError::new(format!("{name} `{text}` is not a positive integer"))
            })
        };
        let islands = dim("islands", islands)?;
        if islands < 2 {
            return Err(ConfigError::new(format!(
                "a chiplet system needs at least 2 islands, got {islands}"
            )));
        }
        let (cols, rows) = (dim("cols", cols)?, dim("rows", rows)?);
        let mut interposer = InterposerClass::Silicon;
        for kv in parts {
            match kv.split_once('=') {
                Some(("interposer", value)) => interposer = value.parse()?,
                _ => {
                    return Err(ConfigError::new(format!(
                        "unknown chiplet option `{kv}` (expected interposer=<class>)"
                    )))
                }
            }
        }
        Ok(Target::chiplet(islands, cols, rows, interposer))
    }

    /// The standard evaluation sizes: 64, 256 and 512 cores.
    ///
    /// Returns `None` for sizes without a preset.
    pub fn preset(cores: u32) -> Option<Target> {
        match cores {
            64 => Some(Target::cmp(8, 8)),
            256 => Some(Target::cmp(16, 16)),
            512 => Some(Target::cmp(32, 16)),
            _ => None,
        }
    }

    /// Number of cores/tiles in the target.
    pub fn cores(&self) -> usize {
        self.fullsys.tiles()
    }

    /// Renders the configuration table (experiment T1).
    pub fn config_table(&self) -> String {
        let f = &self.fullsys;
        let n = &self.noc;
        let mut s = String::new();
        s.push_str(&format!("Target machine: {}\n", self.name));
        s.push_str(&format!(
            "  Tiles             : {} ({} mesh)\n",
            f.tiles(),
            f.shape
        ));
        s.push_str("  Core              : in-order, blocking loads, ");
        s.push_str(&format!("{}-entry store buffer\n", f.store_buffer));
        s.push_str(&format!(
            "  L1 (private)      : {} sets x {} ways, {}B lines\n",
            f.l1_sets, f.l1_ways, f.line_bytes
        ));
        s.push_str(&format!(
            "  L2 (shared, dist.): 1 bank/tile, {}-cycle hit, dir-based MESI\n",
            f.l2_hit_latency
        ));
        s.push_str(&format!(
            "  Memory            : {} controllers, {}-cycle DRAM, 1/{} req/cycle\n",
            f.mem_controllers, f.dram_latency, f.mc_service
        ));
        s.push_str(&format!(
            "  NoC               : {:?} Xy, {} VCs/vnet x {} flits, {}B flits, {}-cycle links\n",
            n.topology, n.vcs_per_vnet, n.vc_depth, n.flit_bytes, n.link_latency
        ));
        if let Some(spec) = &n.chiplet {
            s.push_str(&format!(
                "  Chiplets          : {} islands of {} nodes, {} interposer \
                 ({}-cycle links, {} B/cycle)\n",
                spec.islands,
                n.shape.nodes(),
                spec.interposer.name(),
                spec.interposer.latency(),
                spec.interposer.bytes_per_cycle()
            ));
        }
        s.push_str("  Virtual networks  : 3 (request / response / coherence)\n");
        s
    }
}

/// Dimensions used by [`Target::preset`], exposed for sweep loops.
pub const STANDARD_CORE_COUNTS: [u32; 3] = [64, 256, 512];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist_and_shapes_match() {
        for cores in STANDARD_CORE_COUNTS {
            let t = Target::preset(cores).unwrap();
            assert_eq!(t.cores() as u32, cores);
            assert_eq!(t.noc.shape, t.fullsys.shape);
            t.fullsys.validate().unwrap();
            t.noc.validate().unwrap();
        }
        assert!(Target::preset(100).is_none());
    }

    #[test]
    fn big_targets_get_more_memory_controllers() {
        assert_eq!(Target::preset(64).unwrap().fullsys.mem_controllers, 4);
        assert_eq!(Target::preset(512).unwrap().fullsys.mem_controllers, 8);
    }

    #[test]
    fn chiplet_target_shapes_line_up() {
        let t = Target::chiplet(2, 4, 4, InterposerClass::Silicon);
        assert_eq!(t.cores(), 32);
        assert_eq!(t.fullsys.islands, 2);
        t.fullsys.validate().unwrap();
        t.noc.validate().unwrap();
        let spec = t.noc.chiplet.as_ref().expect("chiplet spec present");
        assert_eq!(spec.islands, 2);
        // Tile t lives on island t / (cols * rows): the fullsys grid is
        // cols wide, so global tile ids match the NoC's island numbering.
        assert_eq!(t.fullsys.shape.nodes(), 32);
        assert_eq!(t.noc.shape.nodes(), 16);
        let table = t.config_table();
        assert!(table.contains("2 islands"), "missing islands in:\n{table}");
        assert!(table.contains("silicon"), "missing interposer in:\n{table}");
    }

    #[test]
    fn chiplet_spec_strings_parse() {
        let t = Target::from_chiplet_spec("2x4x4").unwrap();
        assert_eq!(t, Target::chiplet(2, 4, 4, InterposerClass::Silicon));
        let t = Target::from_chiplet_spec("4x4x2,interposer=organic").unwrap();
        assert_eq!(t, Target::chiplet(4, 4, 2, InterposerClass::Organic));
        for bad in ["", "2x4", "1x4x4", "2x0x4", "2x4x4,interposer=wood", "2x4x4,lanes=9"] {
            assert!(Target::from_chiplet_spec(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn config_table_mentions_the_essentials() {
        let table = Target::preset(64).unwrap().config_table();
        for needle in ["64", "MESI", "VCs", "store buffer", "controllers"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }
}

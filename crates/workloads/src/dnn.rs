//! DNN-style producer-consumer workload.
//!
//! Deep-learning inference pipelines move layer outputs between
//! accelerator stages in large, regular tensor transfers — a traffic
//! pattern dominated by *point-to-point streams between pinned stage
//! pairs* rather than the uniform or hotspot mixes of the SPLASH-class
//! profiles. On a chiplet target each pipeline stage is pinned to one
//! island, so every layer-to-layer tensor handoff crosses the interposer:
//! exactly the traffic the per-class cross-die calibration band exists
//! for. On a monolithic die the same generator still produces the
//! pipelined producer-consumer stream, just between tile groups.
//!
//! Mechanically each core belongs to a stage (contiguous core blocks).
//! A core loops: compute gap, then stream a window of the tensor —
//! loading its own stage's input lines and storing the next stage's
//! input lines. Addresses are constructed so a stage's lines are *homed*
//! on that stage's tiles (see [`DnnWorkload::tensor_line`]), which the
//! hierarchical interleave of `FullSysConfig::home_of` preserves on
//! chiplet targets.

use ra_fullsys::workload::{Op, Workload};
use ra_sim::{ConfigError, Pcg32};

/// Shape of a DNN-style pipeline workload.
///
/// Parsed from and rendered to the canonical spec string
/// `dnn:layers=<n>,tensor=<bytes>` (both keys optional; `dnn` alone is
/// the default shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnnSpec {
    /// Pipeline depth: number of layer-to-layer handoffs per pass.
    pub layers: u32,
    /// Bytes per inter-layer tensor.
    pub tensor_bytes: u64,
}

impl Default for DnnSpec {
    fn default() -> Self {
        DnnSpec {
            layers: 4,
            tensor_bytes: 16_384,
        }
    }
}

impl DnnSpec {
    /// Parses the `layers=<n>,tensor=<bytes>` argument list (the part of
    /// the spec string after `dnn:`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown keys or unparsable values.
    pub fn parse_args(args: &str) -> Result<Self, ConfigError> {
        let mut spec = DnnSpec::default();
        for part in args.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ConfigError::new(format!("dnn arg `{part}` is not key=value")))?;
            match key {
                "layers" => {
                    spec.layers = value
                        .parse()
                        .map_err(|_| ConfigError::new(format!("bad dnn layers `{value}`")))?;
                }
                "tensor" => {
                    spec.tensor_bytes = value
                        .parse()
                        .map_err(|_| ConfigError::new(format!("bad dnn tensor size `{value}`")))?;
                }
                other => {
                    return Err(ConfigError::new(format!("unknown dnn key `{other}`")));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the shape for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a dimension is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.layers == 0 {
            return Err(ConfigError::new("dnn needs at least one layer"));
        }
        if self.tensor_bytes == 0 {
            return Err(ConfigError::new("dnn tensor size must be positive"));
        }
        Ok(())
    }

    /// Canonical spec-string form (`dnn:layers=..,tensor=..`).
    pub fn canonical(&self) -> String {
        format!("dnn:layers={},tensor={}", self.layers, self.tensor_bytes)
    }
}

/// Line size the address construction assumes (matches the full-system
/// default).
const LINE_BYTES: u64 = 64;

/// Memory ops a core issues per tensor window before the next compute
/// gap (keeps single windows from monopolizing the store buffer).
const OPS_PER_WINDOW: u32 = 32;

/// Mean compute cycles between windows.
const WINDOW_GAP: u32 = 12;

#[derive(Debug, Clone, Copy)]
struct DnnCore {
    /// Pipeline stage this core belongs to.
    stage: u32,
    /// Tensor windows completed (advances the address stride).
    window: u64,
    /// Memory ops left in the current window (0 = emit a compute gap).
    ops_left: u32,
    /// Alternates load-from-own-stage / store-to-consumer-stage.
    store_next: bool,
}

/// Producer-consumer generator realizing a [`DnnSpec`].
///
/// Construct with [`DnnWorkload::new`], passing the number of pipeline
/// stages to pin: a chiplet target passes its island count (one stage
/// per die), a monolithic die passes `spec.layers.min(cores)`.
#[derive(Debug, Clone)]
pub struct DnnWorkload {
    spec: DnnSpec,
    stages: u32,
    /// Tiles (== cores) per stage; stage `s` owns tiles
    /// `[s * tiles_per_stage, (s+1) * tiles_per_stage)`.
    tiles_per_stage: u64,
    /// Line blocks a tensor spans per stage region.
    blocks_per_tensor: u64,
    rngs: Vec<Pcg32>,
    cores: Vec<DnnCore>,
}

impl DnnWorkload {
    /// Creates the workload for `cores` cores split into `stages`
    /// contiguous pipeline stages.
    ///
    /// `stages` is clamped to `[1, cores]`; cores that do not divide
    /// evenly spill into the last stage.
    pub fn new(spec: DnnSpec, cores: usize, stages: u32, seed: u64) -> Self {
        let stages = stages.clamp(1, cores.max(1) as u32);
        let tiles_per_stage = (cores as u64 / u64::from(stages)).max(1);
        let lines_per_tensor = (spec.tensor_bytes / LINE_BYTES).max(1);
        DnnWorkload {
            spec,
            stages,
            tiles_per_stage,
            blocks_per_tensor: lines_per_tensor.div_ceil(tiles_per_stage),
            rngs: (0..cores)
                .map(|c| Pcg32::new(seed ^ 0x6e6e_645f, c as u64 * 2 + 1))
                .collect(),
            cores: (0..cores)
                .map(|c| DnnCore {
                    stage: ((c as u64 * u64::from(stages)) / cores.max(1) as u64) as u32,
                    // Stagger windows so stages do not pulse in lockstep.
                    window: (c % 7) as u64,
                    ops_left: 0,
                    store_next: false,
                })
                .collect(),
        }
    }

    /// The spec driving this workload.
    pub fn spec(&self) -> &DnnSpec {
        &self.spec
    }

    /// Pipeline stages in use.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Pipeline stage a core belongs to.
    pub fn stage_of(&self, core: usize) -> u32 {
        self.cores[core].stage
    }

    /// Byte address of line `r` of stage `stage`'s input tensor in
    /// window `window`.
    ///
    /// Lines are laid out in `tiles_per_stage`-sized blocks interleaved
    /// by stage, so under the hierarchical home interleave every line of
    /// a stage's tensor is homed on that stage's own tiles — stores into
    /// the consumer's tensor are what cross stage (and, on a chiplet,
    /// island) boundaries.
    fn tensor_line(&self, stage: u32, window: u64, r: u64) -> u64 {
        let tps = self.tiles_per_stage;
        let block = r / tps;
        let offset = r % tps;
        let superrow = window * self.blocks_per_tensor + block;
        (superrow * u64::from(self.stages) + u64::from(stage)) * tps + offset
    }

    fn address(&mut self, core: usize, stage: u32) -> u64 {
        let lines = (self.spec.tensor_bytes / LINE_BYTES).max(1);
        let window = self.cores[core].window;
        let r = self.rngs[core].next_u64() % lines;
        self.tensor_line(stage, window, r) * LINE_BYTES
    }
}

impl Workload for DnnWorkload {
    fn next_op(&mut self, core: usize) -> Op {
        let st = self.cores[core];
        if st.ops_left == 0 {
            // Window boundary: advance the stride and emit the compute
            // gap that models the layer's arithmetic.
            self.cores[core].window = st.window + 1;
            self.cores[core].ops_left = OPS_PER_WINDOW;
            self.cores[core].store_next = false;
            let n = 1 + self.rngs[core].below(2 * WINDOW_GAP);
            return Op::Compute(n);
        }
        self.cores[core].ops_left = st.ops_left - 1;
        self.cores[core].store_next = !st.store_next;
        if st.store_next {
            // Produce: write into the consumer stage's input tensor.
            let consumer = (st.stage + 1) % self.stages;
            let addr = self.address(core, consumer);
            Op::Store(addr)
        } else {
            // Consume: read this stage's own input tensor.
            let addr = self.address(core, st.stage);
            Op::Load(addr)
        }
    }

    fn name(&self) -> &str {
        "dnn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_args_round_trip() {
        let spec = DnnSpec::parse_args("layers=6,tensor=4096").unwrap();
        assert_eq!(
            spec,
            DnnSpec {
                layers: 6,
                tensor_bytes: 4096
            }
        );
        assert_eq!(spec.canonical(), "dnn:layers=6,tensor=4096");
        assert_eq!(DnnSpec::parse_args("").unwrap(), DnnSpec::default());
        assert!(DnnSpec::parse_args("layers=0").is_err());
        assert!(DnnSpec::parse_args("bogus=1").is_err());
        assert!(DnnSpec::parse_args("layers").is_err());
    }

    #[test]
    fn workload_is_deterministic() {
        let mut a = DnnWorkload::new(DnnSpec::default(), 8, 2, 42);
        let mut b = DnnWorkload::new(DnnSpec::default(), 8, 2, 42);
        for core in 0..8 {
            for _ in 0..200 {
                assert_eq!(a.next_op(core), b.next_op(core));
            }
        }
    }

    #[test]
    fn stages_partition_cores_contiguously() {
        let w = DnnWorkload::new(DnnSpec::default(), 32, 2, 0);
        for c in 0..16 {
            assert_eq!(w.stage_of(c), 0);
        }
        for c in 16..32 {
            assert_eq!(w.stage_of(c), 1);
        }
    }

    /// The address layout must pin each stage's tensor lines to that
    /// stage's own tile block under the hierarchical home interleave
    /// (`island = (line / per_island) % islands`).
    #[test]
    fn tensor_lines_are_homed_on_their_stage() {
        let w = DnnWorkload::new(DnnSpec::default(), 32, 2, 0);
        let per = 16u64; // tiles per stage == per-island tiles on 2x16.
        for stage in 0..2u32 {
            for window in 0..5u64 {
                for r in 0..(w.spec.tensor_bytes / LINE_BYTES) {
                    let line = w.tensor_line(stage, window, r);
                    let island = (line / per) % 2;
                    assert_eq!(island, u64::from(stage), "line {line} off-stage");
                }
            }
        }
    }

    #[test]
    fn stores_target_the_consumer_stage() {
        // Stage 0 core: every store must land in stage 1's region, every
        // load in stage 0's.
        let mut w = DnnWorkload::new(DnnSpec::default(), 32, 2, 7);
        let per = 16u64;
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..2_000 {
            match w.next_op(0) {
                Op::Load(a) => {
                    assert_eq!((a / LINE_BYTES / per) % 2, 0, "load off own stage");
                    loads += 1;
                }
                Op::Store(a) => {
                    assert_eq!((a / LINE_BYTES / per) % 2, 1, "store off consumer");
                    stores += 1;
                }
                Op::Compute(_) => {}
            }
        }
        assert!(loads > 100, "loads missing ({loads})");
        assert!(stores > 100, "stores missing ({stores})");
    }

    #[test]
    fn single_stage_degenerates_gracefully() {
        let mut w = DnnWorkload::new(DnnSpec::default(), 4, 1, 3);
        for _ in 0..100 {
            let _ = w.next_op(0);
        }
        assert_eq!(w.stages(), 1);
        assert_eq!(w.name(), "dnn");
    }
}

//! Workloads: the instruction streams cores execute.

use ra_sim::Pcg32;

/// One operation of a core's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles of computation (retires `n` instructions).
    Compute(u32),
    /// A load from a byte address.
    Load(u64),
    /// A store to a byte address.
    Store(u64),
}

/// A source of per-core operations.
///
/// The full-system simulator pulls the next operation for a core whenever
/// the previous one retires. Implementations must be deterministic given
/// their construction-time seed.
pub trait Workload {
    /// The next operation for `core`.
    fn next_op(&mut self, core: usize) -> Op;

    /// A short label for reports.
    fn name(&self) -> &str {
        "workload"
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_op(&mut self, core: usize) -> Op {
        (**self).next_op(core)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Parameters of the built-in synthetic workload generator.
///
/// Each core owns a private working set and shares a global region with the
/// other cores; the mix of private/shared accesses, read/write ratio and
/// compute gaps shape the coherence traffic the tiles generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticParams {
    /// Mean compute cycles between memory operations.
    pub compute_mean: u32,
    /// Fraction of memory operations that are loads.
    pub read_fraction: f64,
    /// Private working-set size in cache lines per core.
    pub private_lines: u64,
    /// Shared region size in cache lines (global).
    pub shared_lines: u64,
    /// Probability that a memory access targets the shared region.
    pub share_fraction: f64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            compute_mean: 6,
            read_fraction: 0.7,
            private_lines: 512,
            shared_lines: 4096,
            share_fraction: 0.2,
        }
    }
}

/// The built-in synthetic workload.
///
/// # Example
///
/// ```
/// use ra_fullsys::workload::{SyntheticParams, SyntheticWorkload, Workload};
///
/// let mut w = SyntheticWorkload::new(4, SyntheticParams::default(), 42);
/// let op = w.next_op(0);
/// // Deterministic: same seed, same stream.
/// let mut w2 = SyntheticWorkload::new(4, SyntheticParams::default(), 42);
/// assert_eq!(op, w2.next_op(0));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: SyntheticParams,
    line_bytes: u64,
    rngs: Vec<Pcg32>,
    /// Alternates compute / memory so streams interleave realistically.
    next_is_mem: Vec<bool>,
}

impl SyntheticWorkload {
    /// Creates a workload for `cores` cores.
    pub fn new(cores: usize, params: SyntheticParams, seed: u64) -> Self {
        SyntheticWorkload {
            params,
            line_bytes: 64,
            rngs: (0..cores)
                .map(|c| Pcg32::new(seed, c as u64 * 2 + 1))
                .collect(),
            next_is_mem: vec![false; cores],
        }
    }

    fn address(&mut self, core: usize) -> u64 {
        let p = self.params;
        let rng = &mut self.rngs[core];
        let shared = rng.chance(p.share_fraction);
        let line = if shared {
            // Shared region lives at the bottom of the address space.
            rng.next_u64() % p.shared_lines.max(1)
        } else {
            let base = p.shared_lines + core as u64 * p.private_lines.max(1);
            base + rng.next_u64() % p.private_lines.max(1)
        };
        line * self.line_bytes
    }
}

impl Workload for SyntheticWorkload {
    fn next_op(&mut self, core: usize) -> Op {
        if !self.next_is_mem[core] {
            self.next_is_mem[core] = true;
            let mean = self.params.compute_mean.max(1);
            let n = 1 + self.rngs[core].below(2 * mean);
            Op::Compute(n)
        } else {
            self.next_is_mem[core] = false;
            let addr = self.address(core);
            if self.rngs[core].chance(self.params.read_fraction) {
                Op::Load(addr)
            } else {
                Op::Store(addr)
            }
        }
    }

    fn name(&self) -> &str {
        "synthetic"
    }
}

/// A scripted workload for tests: each core replays a fixed sequence and
/// then spins on `Compute(1)`.
#[derive(Debug, Clone)]
pub struct ScriptedWorkload {
    scripts: Vec<Vec<Op>>,
    pos: Vec<usize>,
}

impl ScriptedWorkload {
    /// Creates a workload from one op sequence per core.
    pub fn new(scripts: Vec<Vec<Op>>) -> Self {
        let pos = vec![0; scripts.len()];
        ScriptedWorkload { scripts, pos }
    }

    /// True once `core` has replayed its whole script.
    pub fn exhausted(&self, core: usize) -> bool {
        self.pos[core] >= self.scripts[core].len()
    }
}

impl Workload for ScriptedWorkload {
    fn next_op(&mut self, core: usize) -> Op {
        let script = &self.scripts[core];
        if self.pos[core] < script.len() {
            let op = script[self.pos[core]];
            self.pos[core] += 1;
            op
        } else {
            Op::Compute(1)
        }
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_alternates_compute_and_memory() {
        let mut w = SyntheticWorkload::new(1, SyntheticParams::default(), 1);
        let a = w.next_op(0);
        let b = w.next_op(0);
        assert!(matches!(a, Op::Compute(_)));
        assert!(matches!(b, Op::Load(_) | Op::Store(_)));
    }

    #[test]
    fn synthetic_read_fraction_is_respected() {
        let params = SyntheticParams {
            read_fraction: 0.8,
            ..SyntheticParams::default()
        };
        let mut w = SyntheticWorkload::new(1, params, 3);
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..20_000 {
            match w.next_op(0) {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Compute(_) => {}
            }
        }
        let frac = loads as f64 / (loads + stores) as f64;
        assert!((frac - 0.8).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn private_regions_do_not_overlap() {
        let params = SyntheticParams {
            share_fraction: 0.0,
            ..SyntheticParams::default()
        };
        let mut w = SyntheticWorkload::new(2, params, 5);
        let mut lines0 = std::collections::HashSet::new();
        let mut lines1 = std::collections::HashSet::new();
        for _ in 0..4_000 {
            if let Op::Load(a) | Op::Store(a) = w.next_op(0) {
                lines0.insert(a / 64);
            }
            if let Op::Load(a) | Op::Store(a) = w.next_op(1) {
                lines1.insert(a / 64);
            }
        }
        assert!(lines0.is_disjoint(&lines1), "private sets overlap");
    }

    #[test]
    fn shared_accesses_hit_the_shared_region() {
        let params = SyntheticParams {
            share_fraction: 1.0,
            shared_lines: 100,
            ..SyntheticParams::default()
        };
        let mut w = SyntheticWorkload::new(2, params, 5);
        for _ in 0..1_000 {
            if let Op::Load(a) | Op::Store(a) = w.next_op(0) {
                assert!(a / 64 < 100);
            }
        }
    }

    #[test]
    fn scripted_replays_then_spins() {
        let mut w = ScriptedWorkload::new(vec![vec![Op::Load(0), Op::Store(64)]]);
        assert_eq!(w.next_op(0), Op::Load(0));
        assert!(!w.exhausted(0));
        assert_eq!(w.next_op(0), Op::Store(64));
        assert!(w.exhausted(0));
        assert_eq!(w.next_op(0), Op::Compute(1));
    }
}

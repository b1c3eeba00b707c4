//! Named application profiles.

use ra_fullsys::workload::{Op, Workload};
use ra_sim::Pcg32;

/// Traffic-relevant parameters of one application class.
///
/// Each named constructor approximates a SPLASH-2/PARSEC application's
/// memory behaviour (see the crate docs for the substitution argument):
///
/// | profile | load | burstiness | destinations |
/// |---|---|---|---|
/// | `fft` | medium | strong phases (transpose) | uniform |
/// | `lu` | low-medium | mild | uniform |
/// | `radix` | high | strong | hotspot (histogram) |
/// | `barnes` | medium | mild | mildly shared |
/// | `ocean` | high | mild | neighbour-heavy shared |
/// | `water` | low | mild | low sharing |
/// | `blackscholes` | very low | none | private |
/// | `canneal` | high | none | uniform, huge footprint |
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Display name.
    pub name: String,
    /// Mean compute cycles between memory ops inside a memory-heavy phase.
    pub busy_gap: u32,
    /// Mean compute cycles between memory ops inside a compute phase.
    pub idle_gap: u32,
    /// Mean memory ops per memory-heavy phase.
    pub busy_ops: u32,
    /// Mean memory ops per compute phase (sparse accesses).
    pub idle_ops: u32,
    /// Fraction of memory ops that are loads.
    pub read_fraction: f64,
    /// Private working-set lines per core.
    pub private_lines: u64,
    /// Shared-region size in lines.
    pub shared_lines: u64,
    /// Probability a memory op targets the shared region.
    pub share_fraction: f64,
    /// Probability a *shared* access targets the hot sub-region.
    pub hot_fraction: f64,
    /// Size of the hot sub-region in lines (maps to few home tiles).
    pub hot_lines: u64,
}

impl AppProfile {
    fn base(name: &str) -> AppProfile {
        AppProfile {
            name: name.to_owned(),
            busy_gap: 2,
            idle_gap: 30,
            busy_ops: 64,
            idle_ops: 8,
            read_fraction: 0.7,
            private_lines: 512,
            shared_lines: 8192,
            share_fraction: 0.2,
            hot_fraction: 0.0,
            hot_lines: 16,
        }
    }

    /// FFT-like: phase-alternating (compute vs. all-to-all transpose).
    pub fn fft() -> AppProfile {
        AppProfile {
            busy_gap: 1,
            idle_gap: 40,
            busy_ops: 96,
            idle_ops: 4,
            share_fraction: 0.45,
            ..Self::base("fft")
        }
    }

    /// LU-like: blocked dense factorization, moderate traffic.
    pub fn lu() -> AppProfile {
        AppProfile {
            busy_gap: 4,
            idle_gap: 24,
            busy_ops: 48,
            share_fraction: 0.25,
            read_fraction: 0.75,
            ..Self::base("lu")
        }
    }

    /// RADIX-like: histogram build creates a hotspot and bursts.
    pub fn radix() -> AppProfile {
        AppProfile {
            busy_gap: 1,
            idle_gap: 16,
            busy_ops: 128,
            read_fraction: 0.5,
            share_fraction: 0.5,
            hot_fraction: 0.5,
            hot_lines: 32,
            ..Self::base("radix")
        }
    }

    /// Barnes-like: irregular tree sharing, moderate load.
    pub fn barnes() -> AppProfile {
        AppProfile {
            busy_gap: 3,
            idle_gap: 20,
            share_fraction: 0.35,
            read_fraction: 0.8,
            ..Self::base("barnes")
        }
    }

    /// Ocean-like: grid stencil, the heaviest sustained load.
    pub fn ocean() -> AppProfile {
        AppProfile {
            busy_gap: 1,
            idle_gap: 8,
            busy_ops: 160,
            idle_ops: 16,
            share_fraction: 0.4,
            private_lines: 2048,
            ..Self::base("ocean")
        }
    }

    /// Water-like: compute-bound molecular dynamics.
    pub fn water() -> AppProfile {
        AppProfile {
            busy_gap: 8,
            idle_gap: 50,
            busy_ops: 24,
            share_fraction: 0.15,
            ..Self::base("water")
        }
    }

    /// Blackscholes-like: embarrassingly parallel, tiny traffic.
    pub fn blackscholes() -> AppProfile {
        AppProfile {
            busy_gap: 12,
            idle_gap: 60,
            busy_ops: 16,
            share_fraction: 0.02,
            read_fraction: 0.9,
            ..Self::base("blackscholes")
        }
    }

    /// Canneal-like: huge random working set, cache-hostile.
    pub fn canneal() -> AppProfile {
        AppProfile {
            busy_gap: 2,
            idle_gap: 10,
            busy_ops: 96,
            idle_ops: 32,
            private_lines: 16384,
            shared_lines: 65536,
            share_fraction: 0.5,
            read_fraction: 0.6,
            ..Self::base("canneal")
        }
    }

    /// DNN-inference-like: regular bursts of large, heavily shared
    /// tensor transfers with few private accesses.
    ///
    /// This is the *profile approximation* of the DNN pipeline for code
    /// paths that only know [`AppProfile`]; the true producer-consumer
    /// generator with stage pinning is
    /// [`DnnWorkload`](crate::dnn::DnnWorkload), reached through the
    /// `dnn` spec string. Registered in [`AppProfile::by_name`] but not
    /// in [`AppProfile::suite`] (the evaluation suite stays the eight
    /// SPLASH/PARSEC-class profiles).
    pub fn dnn() -> AppProfile {
        AppProfile {
            busy_gap: 2,
            idle_gap: 14,
            busy_ops: 96,
            idle_ops: 8,
            read_fraction: 0.5,
            share_fraction: 0.8,
            shared_lines: 4096,
            private_lines: 256,
            ..Self::base("dnn")
        }
    }

    /// The full evaluation suite in the order figures report it.
    pub fn suite() -> Vec<AppProfile> {
        vec![
            Self::fft(),
            Self::lu(),
            Self::radix(),
            Self::barnes(),
            Self::ocean(),
            Self::water(),
            Self::blackscholes(),
            Self::canneal(),
        ]
    }

    /// Looks a profile up by name (the suite plus `dnn`).
    pub fn by_name(name: &str) -> Option<AppProfile> {
        if name == "dnn" {
            return Some(Self::dnn());
        }
        Self::suite().into_iter().find(|p| p.name == name)
    }
}

#[derive(Debug, Clone, Copy)]
struct CoreState {
    in_busy_phase: bool,
    ops_left_in_phase: u32,
    next_is_mem: bool,
}

/// A phase-driven workload generator realizing an [`AppProfile`].
///
/// Cores alternate between memory-heavy and compute-heavy phases whose
/// lengths are randomized around the profile means, producing the bursty,
/// time-varying injection that distinguishes real applications from
/// constant-rate synthetic traffic (experiment F1 measures exactly this
/// difference).
#[derive(Debug, Clone)]
pub struct AppWorkload {
    profile: AppProfile,
    line_bytes: u64,
    rngs: Vec<Pcg32>,
    states: Vec<CoreState>,
}

impl AppWorkload {
    /// Creates the workload for `cores` cores.
    pub fn new(profile: AppProfile, cores: usize, seed: u64) -> Self {
        AppWorkload {
            profile,
            line_bytes: 64,
            rngs: (0..cores)
                .map(|c| Pcg32::new(seed ^ 0x9e37_79b9, c as u64 * 2 + 1))
                .collect(),
            states: (0..cores)
                .map(|c| CoreState {
                    // Stagger phase starts so cores do not pulse in lockstep.
                    in_busy_phase: c % 2 == 0,
                    ops_left_in_phase: 1 + c as u32 % 16,
                    next_is_mem: false,
                })
                .collect(),
        }
    }

    /// The profile driving this workload.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    fn pick_address(&mut self, core: usize) -> u64 {
        let p = &self.profile;
        let rng = &mut self.rngs[core];
        let line = if rng.chance(p.share_fraction) {
            if p.hot_fraction > 0.0 && rng.chance(p.hot_fraction) {
                rng.next_u64() % p.hot_lines.max(1)
            } else {
                p.hot_lines + rng.next_u64() % p.shared_lines.max(1)
            }
        } else {
            let base = p.hot_lines + p.shared_lines + core as u64 * p.private_lines.max(1);
            base + rng.next_u64() % p.private_lines.max(1)
        };
        line * self.line_bytes
    }
}

impl Workload for AppWorkload {
    fn next_op(&mut self, core: usize) -> Op {
        let state = self.states[core];
        if !state.next_is_mem {
            // Emit the compute gap for the current phase.
            self.states[core].next_is_mem = true;
            let mean = if state.in_busy_phase {
                self.profile.busy_gap
            } else {
                self.profile.idle_gap
            }
            .max(1);
            let n = 1 + self.rngs[core].below(2 * mean);
            return Op::Compute(n);
        }
        // Memory op; possibly roll over to the next phase.
        self.states[core].next_is_mem = false;
        let mut st = self.states[core];
        if st.ops_left_in_phase == 0 {
            st.in_busy_phase = !st.in_busy_phase;
            let mean = if st.in_busy_phase {
                self.profile.busy_ops
            } else {
                self.profile.idle_ops
            }
            .max(1);
            st.ops_left_in_phase = 1 + self.rngs[core].below(2 * mean);
        }
        st.ops_left_in_phase -= 1;
        self.states[core] = st;
        let addr = self.pick_address(core);
        if self.rngs[core].chance(self.profile.read_fraction) {
            Op::Load(addr)
        } else {
            Op::Store(addr)
        }
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_distinct_profiles() {
        let suite = AppProfile::suite();
        assert_eq!(suite.len(), 8);
        let names: std::collections::HashSet<_> = suite.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn by_name_roundtrips() {
        for p in AppProfile::suite() {
            assert_eq!(AppProfile::by_name(&p.name), Some(p.clone()));
        }
        assert_eq!(AppProfile::by_name("nonesuch"), None);
    }

    #[test]
    fn workload_is_deterministic() {
        let mut a = AppWorkload::new(AppProfile::fft(), 4, 3);
        let mut b = AppWorkload::new(AppProfile::fft(), 4, 3);
        for core in 0..4 {
            for _ in 0..100 {
                assert_eq!(a.next_op(core), b.next_op(core));
            }
        }
    }

    /// Memory intensity = memory ops per compute cycle; heavier profiles
    /// must rank above lighter ones.
    fn intensity(profile: AppProfile) -> f64 {
        let mut w = AppWorkload::new(profile, 1, 5);
        let mut mem = 0u64;
        let mut cycles = 0u64;
        for _ in 0..40_000 {
            match w.next_op(0) {
                Op::Compute(n) => cycles += u64::from(n),
                _ => mem += 1,
            }
        }
        mem as f64 / cycles.max(1) as f64
    }

    #[test]
    fn profiles_span_the_load_spectrum() {
        let ocean = intensity(AppProfile::ocean());
        let water = intensity(AppProfile::water());
        let bs = intensity(AppProfile::blackscholes());
        assert!(
            ocean > 2.0 * water,
            "ocean ({ocean:.3}) must be far heavier than water ({water:.3})"
        );
        assert!(water > bs, "water ({water:.3}) above blackscholes ({bs:.3})");
    }

    #[test]
    fn radix_hotspots_its_shared_accesses() {
        let mut w = AppWorkload::new(AppProfile::radix(), 2, 9);
        let hot_lines = w.profile().hot_lines;
        let mut hot = 0;
        let mut total_mem = 0;
        for _ in 0..40_000 {
            if let Op::Load(a) | Op::Store(a) = w.next_op(0) {
                total_mem += 1;
                if a / 64 < hot_lines {
                    hot += 1;
                }
            }
        }
        let frac = hot as f64 / total_mem as f64;
        // share 0.5 * hot 0.5 = 25% of memory ops hit the tiny hot region.
        assert!((0.15..0.35).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn phases_produce_bursty_gaps() {
        // The gap distribution must be bimodal: the busy-phase mean and the
        // idle-phase mean both well represented.
        let mut w = AppWorkload::new(AppProfile::fft(), 1, 11);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..40_000 {
            if let Op::Compute(n) = w.next_op(0) {
                if n <= 2 {
                    small += 1;
                } else if n > 20 {
                    large += 1;
                }
            }
        }
        assert!(small > 1_000, "busy-phase gaps missing ({small})");
        assert!(large > 100, "idle-phase gaps missing ({large})");
    }
}

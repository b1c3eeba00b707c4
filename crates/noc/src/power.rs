//! Event-based NoC energy model.
//!
//! The classic Orion-style accounting: each microarchitectural event
//! (buffer write/read, VC allocation, switch allocation + crossbar
//! traversal, link traversal) costs a fixed energy; total dynamic energy is
//! the event counts times those costs, and static energy is a per-cycle
//! leakage term per router. The absolute default numbers are representative
//! of a 45 nm router with 16-byte flits and exist so that *relative*
//! comparisons (between design points in the F8 exploration, or between
//! traffic levels) are meaningful — swap them for a calibrated technology
//! model if absolute Joules matter.

use crate::network::NocNetwork;
use crate::router::RouterStats;

/// Per-event energies in picojoules, plus per-router leakage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Writing one flit into an input buffer.
    pub buffer_write_pj: f64,
    /// Reading one flit out of an input buffer.
    pub buffer_read_pj: f64,
    /// One successful VC allocation.
    pub vc_alloc_pj: f64,
    /// One switch allocation plus crossbar traversal.
    pub switch_pj: f64,
    /// Driving one flit across one inter-router link.
    pub link_pj: f64,
    /// Leakage per router per cycle.
    pub leakage_pj_per_cycle: f64,
}

impl Default for EnergyParams {
    /// Representative 45 nm values (pJ): buffers dominate dynamic energy,
    /// links come second, allocators are cheap.
    fn default() -> Self {
        EnergyParams {
            buffer_write_pj: 1.2,
            buffer_read_pj: 0.9,
            vc_alloc_pj: 0.15,
            switch_pj: 0.6,
            link_pj: 1.6,
            leakage_pj_per_cycle: 0.4,
        }
    }
}

/// Energy totals of a run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Input-buffer write energy.
    pub buffers_write: f64,
    /// Input-buffer read energy.
    pub buffers_read: f64,
    /// VC-allocator energy.
    pub vc_alloc: f64,
    /// Switch allocator + crossbar energy.
    pub switch: f64,
    /// Link traversal energy.
    pub links: f64,
    /// Static (leakage) energy.
    pub leakage: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy (everything but leakage).
    pub fn dynamic(&self) -> f64 {
        self.buffers_write + self.buffers_read + self.vc_alloc + self.switch + self.links
    }

    /// Total energy including leakage.
    pub fn total(&self) -> f64 {
        self.dynamic() + self.leakage
    }

    /// Energy per delivered flit, given a flit count (0 if none).
    pub fn per_flit(&self, flits: u64) -> f64 {
        if flits == 0 {
            0.0
        } else {
            self.total() / flits as f64
        }
    }
}

/// Accumulates one router's event counts into a breakdown.
fn absorb(b: &mut EnergyBreakdown, params: &EnergyParams, counts: &RouterStats) {
    b.buffers_write += counts.buffer_writes as f64 * params.buffer_write_pj;
    b.buffers_read += counts.buffer_reads as f64 * params.buffer_read_pj;
    b.vc_alloc += counts.vc_allocs as f64 * params.vc_alloc_pj;
    b.switch += counts.sa_grants as f64 * params.switch_pj;
    b.links += counts.link_flits as f64 * params.link_pj;
}

impl NocNetwork {
    /// Computes the energy consumed so far under the given parameters.
    ///
    /// # Example
    ///
    /// ```
    /// use ra_noc::{EnergyParams, NocConfig, NocNetwork};
    /// use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
    ///
    /// let mut net = NocNetwork::new(NocConfig::new(4, 4))?;
    /// net.inject(
    ///     NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
    ///     Cycle(0),
    /// );
    /// net.run_until_drained(1_000).expect("drains");
    /// let energy = net.energy(&EnergyParams::default());
    /// assert!(energy.dynamic() > 0.0);
    /// assert!(energy.leakage > 0.0);
    /// # Ok::<(), ra_sim::ConfigError>(())
    /// ```
    pub fn energy(&self, params: &EnergyParams) -> EnergyBreakdown {
        let mut breakdown = EnergyBreakdown::default();
        for router in self.routers() {
            absorb(&mut breakdown, params, router.event_counts());
        }
        breakdown.leakage =
            params.leakage_pj_per_cycle * self.stats().cycles as f64 * self.routers().len() as f64;
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::traffic::{InjectionProcess, TrafficGen, TrafficPattern};
    use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};

    #[test]
    fn idle_network_burns_only_leakage() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.tick(Cycle(99));
        let e = net.energy(&EnergyParams::default());
        assert_eq!(e.dynamic(), 0.0);
        // 100 cycles x 16 routers x 0.4 pJ.
        assert!((e.leakage - 100.0 * 16.0 * 0.4).abs() < 1e-9);
        assert_eq!(e.total(), e.leakage);
    }

    #[test]
    fn single_packet_energy_is_exactly_accountable() {
        // One single-flit packet over one hop: the event counts are known
        // in closed form, so the energy is too.
        let mut net = NocNetwork::new(NocConfig::new(2, 1)).unwrap();
        net.inject(
            NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, 8),
            Cycle(0),
        );
        net.run_until_drained(100).unwrap();
        let p = EnergyParams::default();
        let e = net.energy(&p);
        // Writes: NI inject at router 0 + link arrival at router 1 = 2.
        // Reads/SA grants: one traversal per router = 2.
        // VC allocs: one per router = 2. Link flits: 1.
        assert!((e.buffers_write - 2.0 * p.buffer_write_pj).abs() < 1e-9);
        assert!((e.buffers_read - 2.0 * p.buffer_read_pj).abs() < 1e-9);
        assert!((e.vc_alloc - 2.0 * p.vc_alloc_pj).abs() < 1e-9);
        assert!((e.switch - 2.0 * p.switch_pj).abs() < 1e-9);
        assert!((e.links - 1.0 * p.link_pj).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_load() {
        fn dynamic_energy(rate: f64) -> f64 {
            let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
            let mut gen = TrafficGen::new(
                4,
                4,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate },
                1,
            );
            gen.run(&mut net, 5_000);
            net.energy(&EnergyParams::default()).dynamic()
        }
        let light = dynamic_energy(0.01);
        let heavy = dynamic_energy(0.08);
        assert!(heavy > 4.0 * light, "heavy {heavy:.0} vs light {light:.0}");
    }

    #[test]
    fn per_flit_energy_is_stable_across_load() {
        // Dynamic energy per flit should be roughly constant while the
        // network is unsaturated (each flit does the same work per hop).
        fn per_flit(rate: f64) -> f64 {
            let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
            let mut gen = TrafficGen::new(
                4,
                4,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate },
                1,
            );
            gen.run(&mut net, 5_000);
            let e = net.energy(&EnergyParams::default());
            e.dynamic() / net.stats().flits_delivered.max(1) as f64
        }
        let a = per_flit(0.02);
        let b = per_flit(0.06);
        assert!((a - b).abs() / a < 0.25, "per-flit energy drifted: {a} vs {b}");
    }
}

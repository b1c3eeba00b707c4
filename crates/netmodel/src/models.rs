//! Analytical latency models.

use ra_sim::NetMessage;

/// Load information an [`AbstractNetwork`](crate::AbstractNetwork) supplies
/// to its model at prediction time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadContext {
    /// Recent injection load in flits per node per cycle (EWMA).
    pub utilization: f64,
    /// Hop distance of the message being predicted.
    pub hops: usize,
    /// Flits the message occupies on the configured link width.
    pub flits: u32,
}

/// An analytical network latency model.
///
/// Implementations map a message plus a [`LoadContext`] to a delivery
/// latency in cycles. Models are deliberately *stateless* per prediction;
/// whatever adaptivity they have (the calibrated model's table) is updated
/// explicitly by the co-simulation framework at quantum boundaries, which
/// keeps predictions reproducible.
pub trait LatencyModel {
    /// Predicted latency in cycles for `msg` under `ctx`.
    fn latency(&self, msg: &NetMessage, ctx: &LoadContext) -> u64;
}

/// The crudest baseline: every message takes the same number of cycles.
///
/// # Example
///
/// ```
/// use ra_netmodel::{FixedLatency, LatencyModel, LoadContext};
/// use ra_sim::{MessageClass, NetMessage, NodeId};
///
/// let model = FixedLatency::new(12);
/// let msg = NetMessage::new(0, NodeId(0), NodeId(9), MessageClass::Request, 8);
/// assert_eq!(model.latency(&msg, &LoadContext::default()), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLatency {
    cycles: u64,
}

impl FixedLatency {
    /// Creates a model with the given constant latency.
    pub fn new(cycles: u64) -> Self {
        FixedLatency { cycles }
    }
}

impl LatencyModel for FixedLatency {
    fn latency(&self, _msg: &NetMessage, _ctx: &LoadContext) -> u64 {
        self.cycles
    }
}

/// Contention-free pipeline model: injection overhead, per-hop router and
/// link delay, and serialization of multi-flit messages.
///
/// With the default parameters this matches the zero-load latency of the
/// cycle-level NoC in `ra-noc` exactly — which is precisely why it is a
/// misleading abstraction under load: it never models queueing, so its error
/// grows with congestion. This is the paper's "more abstract network model"
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopLatency {
    /// Source overhead: NI to first switch traversal.
    pub base: u64,
    /// Router pipeline cycles per hop (RC + VA before ST).
    pub router: u64,
    /// Link traversal cycles per hop.
    pub link: u64,
}

impl Default for HopLatency {
    /// Parameters matching `ra-noc`'s 3-stage router and 1-cycle links.
    fn default() -> Self {
        HopLatency {
            base: 2,
            router: 2,
            link: 1,
        }
    }
}

impl LatencyModel for HopLatency {
    fn latency(&self, _msg: &NetMessage, ctx: &LoadContext) -> u64 {
        self.base
            + ctx.hops as u64 * (self.router + self.link)
            + u64::from(ctx.flits.saturating_sub(1))
    }
}

/// Hop model plus an M/D/1-style queueing term.
///
/// The waiting time grows as `rho / (2 (1 - rho))` per hop, where `rho` is
/// the utilization relative to a configurable saturation capacity. Better
/// than [`HopLatency`] under load, but its capacity parameter is a static
/// guess — the calibrated reciprocal model subsumes it by measuring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingLatency {
    /// Underlying contention-free model.
    pub hop: HopLatency,
    /// Injection load (flits/node/cycle) at which the network saturates.
    pub capacity: f64,
}

impl Default for QueueingLatency {
    /// Default capacity of 0.35 flits/node/cycle: a typical saturation
    /// point for uniform traffic on a mid-size mesh with 4 VCs.
    fn default() -> Self {
        QueueingLatency {
            hop: HopLatency::default(),
            capacity: 0.35,
        }
    }
}

impl LatencyModel for QueueingLatency {
    fn latency(&self, msg: &NetMessage, ctx: &LoadContext) -> u64 {
        let base = self.hop.latency(msg, ctx);
        let rho = (ctx.utilization / self.capacity).clamp(0.0, 0.95);
        let wait_per_hop = rho / (2.0 * (1.0 - rho));
        base + (wait_per_hop * ctx.hops as f64 * (self.hop.router + self.hop.link) as f64) as u64
    }
}

impl<M: LatencyModel + ?Sized> LatencyModel for Box<M> {
    fn latency(&self, msg: &NetMessage, ctx: &LoadContext) -> u64 {
        (**self).latency(msg, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_sim::{MessageClass, NodeId};

    fn msg(bytes: u32) -> NetMessage {
        NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, bytes)
    }

    fn ctx(hops: usize, flits: u32, util: f64) -> LoadContext {
        LoadContext {
            utilization: util,
            hops,
            flits,
        }
    }

    #[test]
    fn hop_latency_matches_noc_zero_load_shape() {
        let m = HopLatency::default();
        // Same-router delivery: just the injection overhead.
        assert_eq!(m.latency(&msg(8), &ctx(0, 1, 0.0)), 2);
        // One hop, one flit: 5 cycles (matches ra-noc's measured pipeline).
        assert_eq!(m.latency(&msg(8), &ctx(1, 1, 0.0)), 5);
        // Serialization adds flits - 1.
        assert_eq!(m.latency(&msg(72), &ctx(1, 5, 0.0)), 9);
    }

    #[test]
    fn queueing_latency_reduces_to_hop_at_zero_load() {
        let q = QueueingLatency::default();
        let h = HopLatency::default();
        assert_eq!(
            q.latency(&msg(8), &ctx(4, 1, 0.0)),
            h.latency(&msg(8), &ctx(4, 1, 0.0))
        );
    }

    #[test]
    fn queueing_latency_grows_with_load() {
        let q = QueueingLatency::default();
        let low = q.latency(&msg(8), &ctx(4, 1, 0.05));
        let high = q.latency(&msg(8), &ctx(4, 1, 0.3));
        assert!(high > low, "queueing model must penalize load");
    }

    #[test]
    fn queueing_latency_is_finite_at_saturation() {
        let q = QueueingLatency::default();
        let sat = q.latency(&msg(8), &ctx(4, 1, 10.0));
        assert!(sat < 10_000, "clamped rho keeps latency finite, got {sat}");
    }

    #[test]
    fn boxed_model_delegates() {
        let m: Box<dyn LatencyModel> = Box::new(FixedLatency::new(9));
        assert_eq!(m.latency(&msg(8), &ctx(3, 1, 0.0)), 9);
    }
}

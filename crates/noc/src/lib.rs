//! Cycle-level network-on-chip simulator.
//!
//! `ra-noc` implements a classic virtual-channel wormhole NoC at flit and
//! cycle granularity:
//!
//! * **Routers** ([`Router`]) with the canonical pipeline — route
//!   computation, VC allocation, switch allocation, switch traversal — and
//!   credit-based flow control;
//! * **Topologies** ([`TopologyMap`]): 2-D mesh and concentrated mesh,
//!   with XY dimension-order routing;
//! * **Virtual networks**: one per [`MessageClass`](ra_sim::MessageClass),
//!   so coherence-protocol messages cannot deadlock each other;
//! * **Synthetic traffic** ([`traffic`]) for isolated (in-vacuum)
//!   evaluation — the methodology the paper shows to be misleading;
//! * **Fault injection** ([`fault`]): deterministic seeded scripts that
//!   kill or degrade links and stall routers; routing detours around
//!   permanent dead links and [`NocStats::faults`] counts what was
//!   absorbed vs. lost;
//! * **Chiplets** ([`ChipletNetwork`]): the network a co-simulation steps,
//!   N dies ([`NocNetwork`] islands) behind an interposer, with a config
//!   that names no [`ChipletSpec`] built as one island — the die itself;
//! * Full [`NocStats`]: latency breakdowns, per-(class, hops) tables,
//!   throughput and histograms.
//!
//! Each router advances one cycle in one pass ([`Router::step`]) that reads
//! the links' slots of cycle `now - L` and writes only its own links' slots
//! of cycle `now` ([`Wires::links`]), so the routers of a cycle may run in
//! any order. That lets `ra-gpu` execute the identical model
//! bulk-synchronously across worker threads — the stand-in for the paper's
//! GPU coprocessor — with bit-identical results to the serial engine: both
//! engines run the same per-cycle pass, [`step_range`], over all routers
//! or over one worker's range.
//!
//! # Quick start
//!
//! ```
//! use ra_noc::{NocConfig, NocNetwork};
//! use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
//!
//! let mut net = NocNetwork::new(NocConfig::new(4, 4))?;
//! net.inject(
//!     NetMessage::new(0, NodeId(0), NodeId(12), MessageClass::Request, 8),
//!     Cycle(0),
//! );
//! net.run_until_drained(1_000).expect("drains");
//! assert_eq!(net.stats().delivered, 1);
//! # Ok::<(), ra_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub mod chiplet;
pub mod config;
pub mod deflection;
pub mod fault;
pub mod flit;
pub mod network;
pub mod power;
pub mod router;
pub mod stats;
pub mod topology;
pub mod traffic;
pub mod wire;

pub use chiplet::{
    ChipletNetwork, ChipletSpec, ChipletWindowSnapshot, InterposerClass, InterposerStats,
};
pub use config::{NocConfig, TopologyKind};
pub use deflection::{DeflectionConfig, DeflectionNetwork};
pub use fault::{FaultEvent, FaultPlan};
pub use flit::{Flit, FlitKind, PacketId};
pub use network::{
    step_range, EngineParts, NocNetwork, NocWindowSnapshot, RangeActivity, ReleasedInjection,
    MAX_BATCH_CYCLES,
};
pub use power::{EnergyBreakdown, EnergyParams};
pub use router::Router;
pub use stats::{FaultStats, NocStats};
pub use topology::TopologyMap;
pub use traffic::{InjectionProcess, TrafficGen, TrafficPattern};
pub use wire::{Arrivals, Credit, Links, Wire, Wires};

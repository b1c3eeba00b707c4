//! Reciprocal abstraction for computer architecture co-simulation.
//!
//! This crate is the paper's primary contribution: a framework that couples
//! a coarse-grain full-system simulator (`ra-fullsys`) with a cycle-level
//! NoC simulator (`ra-noc`) such that each side sees an *abstraction of the
//! other*:
//!
//! * the detailed NoC receives the full system's **real message stream**
//!   instead of synthetic traffic (fixing the in-vacuum evaluation problem);
//! * the full system consults a **continuously re-calibrated latency
//!   model** ([`ra_netmodel::CalibratedModel`]) instead of paying
//!   cycle-level cost on every message.
//!
//! The coupling lives in [`ReciprocalNetwork`]. The crate also provides the
//! mode ladder the evaluation compares ([`ModeSpec`]): static abstract
//! models, reciprocal abstraction (serial or on the data-parallel engine),
//! and lock-step detailed co-simulation as ground truth — plus the
//! [`driver`] used by every experiment binary and the [`Target`]
//! machine presets.
//!
//! # Quick start
//!
//! ```
//! use ra_cosim::{ModeSpec, RunSpec, Target};
//! use ra_workloads::AppProfile;
//!
//! let target = Target::cmp(4, 4);
//! let app = AppProfile::water();
//! let result = RunSpec::new(&target, &app)
//!     .mode(ModeSpec::Reciprocal { quantum: 500, workers: 0, pipeline: false })
//!     .instructions(200) // per core
//!     .budget(500_000)   // cycle cap
//!     .seed(1)
//!     .run()?;
//! assert!(result.cycles > 0);
//! assert!(result.coupler.expect("reciprocal run").calibrations > 0);
//! # Ok::<(), ra_sim::SimError>(())
//! ```

pub mod driver;
pub mod probe;
pub mod record;
pub mod reciprocal;
pub mod target;

pub use driver::{format_row, percent_error, ModeSpec, ParseModeError, RunResult, RunSpec};
pub use probe::{LatencyProbe, ProbeSnapshot};
pub use record::{replay_into, RecordedMessage, TrafficRecord};
pub use reciprocal::{
    CouplerStats, FallbackPolicy, ReciprocalNetwork, SpecState, TripRecord, TRIP_HISTORY,
};
pub use target::{Target, STANDARD_CORE_COUNTS};

// Chiplet vocabulary, re-exported so layers above the driver (the job
// service, bench bins) can name interposer classes without depending on
// the NoC crate directly.
pub use ra_noc::{ChipletSpec, InterposerClass};

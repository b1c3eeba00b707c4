//! What the four workloads share: the phase record, seed derivation and
//! the trait `main` drives them through.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_cosim::{ModeSpec, RunResult};
use ra_serve::proto::{Request, Response};
use ra_serve::JobSpec;

use crate::check::{Fingerprint, Tally};
use crate::host::process_cpu_time;
use crate::metrics::Metrics;
use crate::trace::Span;

mod memo_json;
mod mesh;
mod sweep_relay;

/// Rate groups of a phase whose jobs need not be grouped in any
/// particular way: enough that one burst from a neighbour on the host
/// moves one group and not the median.
pub const DEFAULT_RATE_GROUPS: usize = 8;

/// Seed of every workload's reference spec. It never depends on `--seed`:
/// `latency_err_pct` and the exact counts are taken on reference specs so
/// that they repeat exactly from run to run.
pub const REFERENCE_SEED: u64 = 1;

/// How much of a run's measured work a phase does: all of it in an
/// untraced run; a traced run does a quarter with tracing off and a
/// quarter with it on, and spends the rest on the layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    Full,
    Quarter,
}

impl Length {
    /// Measured seconds of a workload that runs against the clock.
    pub fn seconds(self) -> f64 {
        let full = crate::metrics::manifest().run_seconds as f64;
        match self {
            Length::Full => full,
            Length::Quarter => full / 4.0,
        }
    }
}

/// One answered job of a measured phase, timed from the phase's start.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl JobSample {
    /// A job submitted `begun` after `start` and answered just now.
    pub fn ending_now(start: Instant, begun: Duration) -> JobSample {
        JobSample {
            start_ns: begun.as_nanos() as u64,
            end_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Process CPU time over the phase, all threads.
    pub cpu: Duration,
    pub jobs: Vec<JobSample>,
    /// Equal consecutive groups of completions `jobs_per_s` is the median
    /// rate of.
    pub rate_groups: usize,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// Direct-run results of the phase's jobs, where the workload calls
    /// `RunSpec::run` itself (the mesh workloads).
    pub runs: Vec<RunResult>,
}

impl Phase {
    /// Host time from submitting each answered job to holding its result.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| (j.end_ns - j.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// The requests and responses one job (or one batch) puts on the wire.
pub type Exchange = Vec<(Request, Response)>;

/// What a workload hands the per-layer measurements: its own inputs.
pub struct LayerInputs {
    /// The workload's pinned spec at the reference seed.
    pub reference: JobSpec,
    /// The set-up's direct run of `reference`.
    pub baseline: Arc<RunResult>,
    pub exchange: Exchange,
    /// Jobs `exchange` carries: 1, or the batch size.
    pub jobs_per_exchange: usize,
}

pub trait Workload {
    /// The spec measured jobs run, and where their seeds come from.
    fn job_spec_text(&self) -> String;

    /// The fixed spec (or specs) the error metric and exact counts use.
    fn reference_spec_text(&self) -> String;

    /// Builds everything the measured phase needs, once, and returns
    /// `latency_err_pct`. More than 4 s of simulation that does not depend
    /// on how fast the host is, so that its time repeats.
    fn setup(&mut self, tally: &mut Tally) -> Result<f64, String>;

    /// Runs the measured jobs, closed loop.
    fn measure(&mut self, length: Length, traced: bool) -> Phase;

    /// Checks that need no timing, after the measured phase.
    fn verify(&mut self, tally: &mut Tally);

    fn layer_inputs(&self) -> LayerInputs;

    /// What the per-layer metrics predict one job's latency to be, in ms.
    fn layers_sum_ms(&self, m: &Metrics, traced: &Phase) -> f64;

    /// Adds the counters of the servers the workload ran.
    fn add_service_counts(&self, counts: &mut ServiceCounts);

    /// Stops servers and removes temporary files.
    fn teardown(&mut self);
}

/// Counters summed over every service and relay a traced run started.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceCounts {
    pub enqueued: u64,
    pub coalesced: u64,
    pub cached: u64,
    pub journal_compactions: u64,
    pub forward_retries: u64,
    pub reroutes: u64,
}

impl ServiceCounts {
    pub fn add_service(&mut self, stats: &ra_serve::ServiceStats) {
        self.enqueued += stats.admitted;
        self.coalesced += stats.coalesced;
        self.cached += stats.cache_hits;
        self.journal_compactions += stats.journal_compactions;
    }

    pub fn add_relay(&mut self, stats: &ra_serve::RelayStats) {
        self.forward_retries += stats.retries;
        self.reroutes += stats.reroutes;
    }
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "mesh256_serial" => Some(Box::new(mesh::Mesh::new(0, seed))),
        "mesh256_par2" => Some(Box::new(mesh::Mesh::new(2, seed))),
        "serve_memo_json" => Some(Box::new(memo_json::MemoJson::new(seed))),
        "serve_sweep_relay" => Some(Box::new(sweep_relay::SweepRelay::new(seed))),
        _ => None,
    }
}

/// The `index`-th job seed of a run: a splitmix64 stream keyed by the
/// run's `--seed`, folded below 10^9 so specs stay readable.
pub fn job_seed(run_seed: u64, index: u64) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000_000
}

pub fn parse_spec(text: &str) -> JobSpec {
    text.parse()
        .unwrap_or_else(|err| panic!("pinned spec `{text}` does not parse: {err}"))
}

/// Direct `RunSpec::run` of a spec.
pub fn run_direct(spec: &JobSpec) -> Result<RunResult, String> {
    spec.to_run_spec()
        .run()
        .map_err(|err| format!("`{spec}` failed: {err}"))
}

/// Mean packet-latency error of `answer` against lock-step truth, in %.
pub fn latency_error_pct(spec: &JobSpec, answer: &RunResult) -> Result<f64, String> {
    let truth = run_direct(&spec.clone().mode(ModeSpec::Lockstep))?;
    Ok(ra_cosim::percent_error(
        answer.avg_latency(),
        truth.avg_latency(),
    ))
}

/// Runs `lanes` closed-loop client threads, each on its own connection,
/// and merges what they measured. `lane` gets its index and the phase's
/// start, and returns its part of the phase and whatever else it kept.
pub fn run_lanes<T: Send>(
    lanes: usize,
    lane: impl Fn(usize, Instant) -> (Phase, T) + Sync,
) -> (Phase, Vec<T>) {
    let start = Instant::now();
    let cpu_start = process_cpu_time();
    let parts: Vec<(Phase, T)> = std::thread::scope(|scope| {
        let lane = &lane;
        let handles: Vec<_> = (0..lanes)
            .map(|index| scope.spawn(move || lane(index, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut phase = Phase {
        cpu: process_cpu_time().saturating_sub(cpu_start),
        rate_groups: DEFAULT_RATE_GROUPS,
        ..Phase::default()
    };
    let mut kept = Vec::with_capacity(lanes);
    for (part, extra) in parts {
        phase.jobs.extend(part.jobs);
        phase.spans.extend(part.spans);
        phase.tally.merge(part.tally);
        kept.push(extra);
    }
    (phase, kept)
}

/// The fingerprint of a served answer to `result`. Strict fidelity: an
/// unfinished, failed or degraded answer is an error.
pub fn answer_fingerprint(response: &Response) -> Result<Fingerprint, String> {
    match response {
        Response::Outcome(ok) => match (&ok.body, ok.outcome.as_str()) {
            (Some(body), "completed" | "cached")
                if body.fidelity.as_deref().unwrap_or("reciprocal") == "reciprocal" =>
            {
                Ok(Fingerprint::of_body(body))
            }
            _ => Err(format!("result answered {ok:?}")),
        },
        other => Err(format!("result answered {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_of_the_manifest_exists() {
        for name in &crate::metrics::manifest().workloads {
            assert!(by_name(name, 1).is_some(), "{name}");
        }
    }

    #[test]
    fn job_seeds_repeat_per_run_seed_and_differ_across_them() {
        assert_eq!(job_seed(1, 0), job_seed(1, 0));
        let a: Vec<u64> = (0..64).map(|i| job_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| job_seed(2, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len());
    }
}

//! Per-layer measurements (`--trace 1` only). Where a layer is only ever
//! called from inside `RunSpec::run` or a server, the workload's own
//! inputs are replayed through that layer's public functions.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ra_cosim::RunResult;

use crate::check::Tally;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::{LayerInputs, ServiceCounts};

mod serve;
mod sim;

/// Host time each repeated micro-measurement may take.
const OP_BUDGET: Duration = Duration::from_millis(120);

/// Measures every layer below the trace's own spans. `phase_runs` are the
/// traced phase's direct-run results, where the workload has any.
pub fn measure(
    inputs: &LayerInputs,
    phase_runs: &[RunResult],
    m: &mut Metrics,
    counts: &mut ServiceCounts,
    tally: &mut Tally,
) -> Result<(), String> {
    sim::measure(inputs, phase_runs, m, tally)?;
    let dir = PathBuf::from(format!("benchmark/out/tmp-{}-layers", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|err| err.to_string())?;
    let served = serve::measure(inputs, &dir, m, counts, tally);
    let _ = std::fs::remove_dir_all(&dir);
    served
}

/// Runs one layer's measurements and says how long they took, so that a
/// traced run that outgrows its time budget shows where.
fn timed<T>(what: &str, layer: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = layer();
    println!("# layers: {what} took {:.2} s", t0.elapsed().as_secs_f64());
    out
}

/// Median nanoseconds per call of `op`: batches of `batch` calls until
/// `OP_BUDGET` is spent, five batches at least.
fn ns_per_op(batch: usize, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || started.elapsed() < OP_BUDGET {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_op).expect("five batches at least")
}

/// Median nanoseconds of `samples` single timed calls of `op`.
fn median_ns(samples: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times).expect("at least one sample")
}

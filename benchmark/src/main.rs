//! The repo benchmark: one workload per process, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

mod aa;
mod check;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use check::Tally;
use metrics::{manifest, MetricDef, Metrics};
use stats::{grouped_rate_median, mad, median};
use workload::{Length, Phase, ServiceCounts, Workload};

struct Options {
    workload: String,
    seed: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ra-benchmark --workload <{}> [--seed <n>] [--seconds {}] [--trace <0|1>]\n       \
         ra-benchmark aa --runs <n> [--seed-base <n>]",
        manifest().workloads.join("|"),
        manifest().run_seconds
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().unwrap_or_else(|_| usage()),
            // The driver passes `run_seconds` of BENCHMARK.json back. Run
            // length is the benchmark's, the same on every commit: any
            // other value is refused, not obeyed.
            "--seconds" if value.parse() == Ok(manifest().run_seconds) => {}
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    options
}

fn main() {
    // `setup_s` counts from here: process start to first measured job.
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("aa") {
        std::process::exit(aa::main(&args[1..]));
    }
    let options = parse_options(&args);
    let Some(mut workload) = workload::by_name(&options.workload, options.seed) else {
        usage()
    };
    println!(
        "# workload={} seed={} seconds={} trace={}",
        options.workload,
        options.seed,
        manifest().run_seconds,
        u8::from(options.trace)
    );
    println!(
        "# host nproc={} loadavg_1m={}",
        host::nproc(),
        host::load_average_1m().map_or("unknown".to_owned(), |l| l.to_string())
    );
    println!("# job spec: {}", workload.job_spec_text());
    println!("# reference spec: {}", workload.reference_spec_text());
    let outcome = if options.trace {
        traced_run(workload.as_mut(), &options)
    } else {
        untraced_run(workload.as_mut(), started)
    };
    workload.teardown();
    match outcome {
        Ok(tally) => std::process::exit(tally.exit_code()),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}

fn untraced_run(workload: &mut dyn Workload, started: Instant) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    m.set("latency_err_pct", workload.setup(&mut tally)?);
    m.set("setup_s", started.elapsed().as_secs_f64());
    let phase = workload.measure(Length::Full, false);
    workload.verify(&mut tally);

    let ends: Vec<u64> = phase.jobs.iter().map(|j| j.end_ns).collect();
    let too_few = || format!("{} jobs answered: too few to measure", ends.len());
    m.set(
        "jobs_per_s",
        grouped_rate_median(&ends, phase.rate_groups).ok_or_else(too_few)?,
    );
    let latencies_ms = phase.latencies_ms();
    m.set("job_ms_p50", median(&latencies_ms).ok_or_else(too_few)?);
    println!(
        "# job_ms_p50 is over n={} jobs, median absolute deviation {:.4} ms",
        latencies_ms.len(),
        mad(&latencies_ms).ok_or_else(too_few)?
    );
    m.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    tally.merge(phase.tally);
    report(&manifest().end_to_end, &m, tally)
}

fn traced_run(workload: &mut dyn Workload, options: &Options) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    workload.setup(&mut tally)?;
    // Half of a run's measured work goes to the workload itself, a
    // quarter with tracing off and a quarter with it on; the difference
    // between their medians is what the spans cost. The layers get the
    // rest.
    let untraced = workload.measure(Length::Quarter, false);
    let traced = workload.measure(Length::Quarter, true);
    workload.verify(&mut tally);
    let p50 =
        |phase: &Phase| median(&phase.latencies_ms()).ok_or("a traced-run phase answered no job");
    let (untraced_p50, traced_p50) = (p50(&untraced)?, p50(&traced)?);

    // CPU per job is not an end-to-end metric: `serve_memo_json` is idle
    // for all but a three-hundredth of a run, and what its threads are
    // charged for waking from idle differs by a third from one quarter
    // of an hour to the next.
    let cpu = untraced.cpu + traced.cpu;
    let jobs = untraced.jobs.len() + traced.jobs.len();
    m.set("host.cpu_ms_per_job", cpu.as_secs_f64() * 1e3 / jobs as f64);

    let mut counts = ServiceCounts::default();
    layers::measure(
        &workload.layer_inputs(),
        &traced.runs,
        &mut m,
        &mut counts,
        &mut tally,
    )?;
    workload.add_service_counts(&mut counts);
    m.set("serve.scheduler.enqueued", counts.enqueued as f64);
    m.set("serve.scheduler.coalesced", counts.coalesced as f64);
    m.set("serve.scheduler.cached", counts.cached as f64);
    m.set(
        "serve.journal.compactions",
        counts.journal_compactions as f64,
    );
    m.set(
        "serve.cluster.forward_retries",
        counts.forward_retries as f64,
    );
    m.set("serve.cluster.reroutes", counts.reroutes as f64);

    let layers_sum = workload.layers_sum_ms(&m, &traced);
    m.set("trace.layers_sum_ms", layers_sum);
    m.set(
        "trace.residual_pct",
        100.0 * (traced_p50 - layers_sum) / traced_p50,
    );
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
    );

    let path = PathBuf::from(format!("benchmark/out/trace_{}.jsonl", options.workload));
    trace::write_jsonl(&path, &traced.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# {} spans written to {}",
        traced.spans.len(),
        path.display()
    );
    for (name, totals) in trace::totals_by_name(&traced.spans) {
        println!(
            "# span {name}: count={} total_ms={:.3} self_ms={:.3}",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    println!(
        "# job_ms_p50 untraced={untraced_p50:.4} ms (n={}) traced={traced_p50:.4} ms (n={})",
        untraced.jobs.len(),
        traced.jobs.len()
    );
    tally.merge(untraced.tally);
    tally.merge(traced.tally);
    report(&manifest().per_layer, &m, tally)
}

/// Prints every wanted metric by name with its unit, then the result
/// line, and hands the tally back for the exit code.
fn report(wanted: &[MetricDef], m: &Metrics, mut tally: Tally) -> Result<Tally, String> {
    if tally.attempted == 0 {
        return Err("no job was attempted".to_owned());
    }
    let mut fields = Vec::new();
    for MetricDef {
        name, unit, better, ..
    } in wanted
    {
        match m.get(name) {
            Some(value) if value.is_finite() => {
                println!("{name} = {value} {unit} ({better} is better)");
                fields.push(format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                ));
            }
            other => tally.violation(format!("metric `{name}` was measured as {other:?}")),
        }
    }
    for reason in &tally.reasons {
        println!("# failed: {reason}");
    }
    println!(
        "# jobs attempted={} succeeded={} failed={} violated_checks={}",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed,
        tally.violations
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        fields.join(",")
    );
    Ok(tally)
}

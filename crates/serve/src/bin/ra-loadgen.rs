//! `ra-loadgen` — mixed open-loop load generator for `ra-serve`.
//!
//! ```text
//! ra-loadgen --addr 127.0.0.1:7743 [--jobs 64] [--workers 4]
//!            [--distinct 8] [--spec "target=2x2 app=water ..."]
//!            [--timeout-ms 120000] [--binary] [--batch N]
//! ```
//!
//! Drives the server with `--jobs` submissions spread round-robin over
//! `--workers` persistent connections. The stream cycles through
//! `--distinct` seed variants of the base `--spec` and through the three
//! priorities, so it exercises coalescing, caching, and priority
//! ordering at once. Submission is *open-loop*: each connection fires
//! all of its submits back-to-back, then collects results.
//!
//! `--binary` speaks the checksummed binary frame codec instead of
//! line JSON (the server sniffs the codec per connection, no flag
//! needed on its side). `--batch N` rides the `submit_batch` /
//! `result_batch` verbs, N jobs per round-trip; both compose, and
//! `--binary --batch 16` is the wire's cheapest shape.
//!
//! The report (stable, CI-greppable):
//!
//! ```text
//! dispositions: enqueued=8 coalesced=40 cached=16 rejected=0 rejected_without_signal=0 retries=0
//! outcomes: completed=8 cached=56 failed=0 cancelled=0 expired=0
//! latency ms: p50=1.2 p95=9.8 p99=14.0 mean=3.4
//! throughput: 410.3 jobs/s over 0.16 s
//! bytes: sent=9184 received=21440 per_job=478.5
//! server cache: ... hit_ratio=0.875 memo_ratio=0.875
//! ```
//!
//! The `bytes:` line counts wire traffic on the loadgen's job
//! connections (submits + results, not the final stats poll);
//! `per_job` divides the total by finished jobs, which is what the CI
//! binary-vs-JSON efficiency gate compares.
//!
//! `rejected_without_signal` counts submissions the server turned away
//! *without* the explicit `queue_full` backpressure signal — always 0
//! for a well-behaved server, and CI asserts exactly that.
//!
//! `--addr` may point at an `ra-relay` instead of a single backend —
//! the protocol is identical. In that case the report grows a
//! `relay: ... retries=... reroutes=...` line (forward retries and
//! failover re-routes observed at the relay) and one `shard N:` row per
//! backend with its health state and share of the work.
//!
//! When the server *does* signal `queue_full` + `retryable`, each
//! connection retries the same submission with exponential backoff plus
//! jitter drawn from a per-connection seeded generator, so runs are
//! reproducible and connections do not thunder back in lockstep. The
//! `retries=` field on the dispositions line counts those resubmits;
//! `rejected=` counts only submissions that exhausted the budget.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ra_serve::{ErrorCode, Json, Response, SubmitItem, WireClient};

struct Args {
    addr: String,
    jobs: usize,
    workers: usize,
    distinct: usize,
    spec: String,
    timeout_ms: u64,
    binary: bool,
    batch: usize,
    /// `--overload`: closed-loop capacity calibration, then an open-loop
    /// arrival-rate ramp past capacity (see [`overload`]).
    overload: bool,
    /// Offered-load multipliers for the ramp, vs measured capacity.
    steps: Vec<f64>,
    /// Wall-clock per ramp step, milliseconds.
    step_ms: u64,
    /// Every Nth overload submission withholds `allow_degraded`
    /// (0 = every submission consents).
    strict_every: usize,
}

const USAGE: &str = "usage: ra-loadgen --addr HOST:PORT [--jobs N] [--workers N] \
                     [--distinct N] [--spec SPEC] [--timeout-ms N] [--binary] [--batch N] \
                     [--overload] [--steps M,M,...] [--step-ms N] [--strict-every N]";

const PRIORITIES: [&str; 3] = ["low", "normal", "high"];

/// Backoff schedule for `queue_full` rejections: attempt `n` (1-based)
/// sleeps `BACKOFF_BASE_MS << (n-1)` plus jitter in `[0, same)` ms.
const MAX_SUBMIT_ATTEMPTS: u32 = 6;
const BACKOFF_BASE_MS: u64 = 2;

/// xorshift64* — tiny, seedable, and plenty for backoff jitter.
/// Seeded from the connection index so every run of the same command
/// line produces the same retry timing per connection.
struct Jitter(u64);

impl Jitter {
    fn seeded(client_id: usize) -> Jitter {
        Jitter((client_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `[0, bound)`; bound must be non-zero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Default spec for `--overload`: reciprocal mode, so the ladder has
/// cheaper rungs to degrade to, and heavy enough at full fidelity that
/// a small worker pool saturates at a measurable rate.
const OVERLOAD_SPEC: &str =
    "target=4x4 app=water mode=reciprocal:quantum=500 instructions=3000 budget=20000000";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        jobs: 64,
        workers: 4,
        distinct: 8,
        spec: String::new(),
        timeout_ms: 120_000,
        binary: false,
        batch: 1,
        overload: false,
        steps: vec![0.5, 1.5, 3.0],
        step_ms: 2_000,
        strict_every: 4,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--jobs" => args.jobs = parse_num(&value("--jobs")?, "--jobs")?,
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--distinct" => args.distinct = parse_num(&value("--distinct")?, "--distinct")?,
            "--spec" => args.spec = value("--spec")?,
            "--timeout-ms" => {
                args.timeout_ms = parse_num(&value("--timeout-ms")?, "--timeout-ms")? as u64;
            }
            "--binary" => args.binary = true,
            "--batch" => args.batch = parse_num(&value("--batch")?, "--batch")?,
            "--overload" => args.overload = true,
            "--steps" => {
                let text = value("--steps")?;
                args.steps = text
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|m| *m > 0.0)
                            .ok_or_else(|| {
                                format!("--steps needs positive multipliers, got `{text}`")
                            })
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            "--step-ms" => {
                args.step_ms = parse_num(&value("--step-ms")?, "--step-ms")? as u64;
            }
            "--strict-every" => {
                // 0 is meaningful: every submission consents to degrade.
                let text = value("--strict-every")?;
                args.strict_every = text.parse::<usize>().map_err(|_| {
                    format!("--strict-every needs a non-negative integer, got `{text}`")
                })?;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.addr.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    if args.spec.is_empty() {
        args.spec = if args.overload {
            OVERLOAD_SPEC.to_owned()
        } else {
            "target=2x2 app=water mode=fixed:10 instructions=50 budget=200000".to_owned()
        };
    }
    Ok(args)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer, got `{text}`"))
}

/// What one connection observed.
#[derive(Default)]
struct Tally {
    enqueued: u64,
    coalesced: u64,
    cached_submit: u64,
    rejected: u64,
    rejected_without_signal: u64,
    retries: u64,
    completed: u64,
    cached_outcome: u64,
    failed: u64,
    cancelled: u64,
    expired: u64,
    transport_errors: u64,
    /// Wire bytes this connection wrote / read (submits + results).
    bytes_sent: u64,
    bytes_received: u64,
    /// Client-observed submit -> result wall latency, milliseconds.
    latency_ms: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.enqueued += other.enqueued;
        self.coalesced += other.coalesced;
        self.cached_submit += other.cached_submit;
        self.rejected += other.rejected;
        self.rejected_without_signal += other.rejected_without_signal;
        self.retries += other.retries;
        self.completed += other.completed;
        self.cached_outcome += other.cached_outcome;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.expired += other.expired;
        self.transport_errors += other.transport_errors;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.latency_ms.extend(other.latency_ms);
    }
}

/// One job's spec + priority, with its original submit instant for the
/// latency tally.
struct PendingJob {
    spec: String,
    priority: &'static str,
    submitted: Instant,
}

/// Records one typed submit response; returns the ticket if accepted,
/// `Some(true)` in `.1` if the job should be retried (signalled
/// `queue_full`).
fn record_submit(tally: &mut Tally, response: &Response) -> (Option<u64>, bool) {
    match response {
        Response::Submit(ok) => {
            match ok.disposition.as_str() {
                "enqueued" => tally.enqueued += 1,
                "coalesced" => tally.coalesced += 1,
                "cached" => tally.cached_submit += 1,
                other => {
                    eprintln!("ra-loadgen: odd disposition {other:?}");
                    tally.transport_errors += 1;
                }
            }
            (Some(ok.ticket), false)
        }
        Response::Error(err) => {
            let signalled = err.code == ErrorCode::QueueFull && err.depth.is_some();
            (None, signalled)
        }
        other => {
            eprintln!("ra-loadgen: odd submit response {other:?}");
            tally.transport_errors += 1;
            (None, false)
        }
    }
}

/// Submits one job with the signalled-`queue_full` backoff loop.
fn submit_one(
    client: &mut WireClient,
    tally: &mut Tally,
    jitter: &mut Jitter,
    job: &PendingJob,
) -> Option<u64> {
    let item = SubmitItem::new(job.spec.clone()).priority(job.priority);
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let mut responses = match client.submit_batch(vec![item.clone()]) {
            Ok(responses) => responses,
            Err(err) => {
                eprintln!("ra-loadgen: submit: {err}");
                tally.transport_errors += 1;
                return None;
            }
        };
        let response = responses.pop().unwrap_or_else(|| {
            Response::Error(ra_serve::WireError::new(ErrorCode::Unavailable, "submit"))
        });
        let (ticket, retryable) = record_submit(tally, &response);
        if ticket.is_some() {
            return ticket;
        }
        if retryable && attempt < MAX_SUBMIT_ATTEMPTS {
            let base = BACKOFF_BASE_MS << (attempt - 1);
            std::thread::sleep(Duration::from_millis(base + jitter.below(base)));
            tally.retries += 1;
            continue;
        }
        tally.rejected += 1;
        if !retryable {
            tally.rejected_without_signal += 1;
        }
        return None;
    }
}

/// Records one typed result response against its submit instant.
fn record_result(tally: &mut Tally, response: &Response, submitted: Instant) {
    let outcome = match response {
        Response::Outcome(ok) => ok.outcome.as_str(),
        Response::Error(err) => {
            eprintln!("ra-loadgen: no outcome: {} ({})", err.code.as_str(), err.verb);
            tally.transport_errors += 1;
            return;
        }
        other => {
            eprintln!("ra-loadgen: odd result response {other:?}");
            tally.transport_errors += 1;
            return;
        }
    };
    match outcome {
        "completed" => tally.completed += 1,
        "cached" => tally.cached_outcome += 1,
        "failed" | "poisoned" => tally.failed += 1,
        "cancelled" => tally.cancelled += 1,
        "deadline_expired" | "deadline_exceeded" => tally.expired += 1,
        other => {
            eprintln!("ra-loadgen: odd outcome {other:?}");
            tally.transport_errors += 1;
            return;
        }
    }
    tally.latency_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
}

fn drive_connection(args: &Args, jobs: &[usize], client_id: usize) -> Tally {
    let mut tally = Tally::default();
    let mut jitter = Jitter::seeded(client_id);
    let mut client = match WireClient::connect(args.addr.as_str()) {
        Ok(client) => client.with_binary(args.binary),
        Err(err) => {
            eprintln!("ra-loadgen: connect {}: {err}", args.addr);
            tally.transport_errors += 1;
            return tally;
        }
    };
    let queue: Vec<PendingJob> = jobs
        .iter()
        .map(|&job| PendingJob {
            spec: format!("{} seed={}", args.spec, job % args.distinct),
            priority: PRIORITIES[job % PRIORITIES.len()],
            submitted: Instant::now(),
        })
        .collect();
    // Open-loop phase: all submits back-to-back (in `--batch`-sized
    // bursts when batching); a signalled `queue_full` pauses just that
    // job for a jittered exponential backoff.
    let mut pending: Vec<(u64, Instant)> = Vec::with_capacity(jobs.len());
    let batch = args.batch.max(1);
    for chunk in queue.chunks(batch) {
        if batch == 1 {
            let job = &chunk[0];
            if let Some(ticket) = submit_one(&mut client, &mut tally, &mut jitter, job) {
                pending.push((ticket, job.submitted));
            }
            continue;
        }
        let items: Vec<SubmitItem> = chunk
            .iter()
            .map(|job| SubmitItem::new(job.spec.clone()).priority(job.priority))
            .collect();
        let responses = match client.submit_batch(items) {
            Ok(responses) => responses,
            Err(err) => {
                eprintln!("ra-loadgen: submit_batch: {err}");
                tally.transport_errors += 1;
                continue;
            }
        };
        for (job, response) in chunk.iter().zip(&responses) {
            let (ticket, retryable) = record_submit(&mut tally, response);
            match ticket {
                Some(ticket) => pending.push((ticket, job.submitted)),
                // A signalled queue_full falls back to the per-job
                // backoff loop; anything else is a final rejection.
                None if retryable => {
                    tally.retries += 1;
                    let base = BACKOFF_BASE_MS + jitter.below(BACKOFF_BASE_MS);
                    std::thread::sleep(Duration::from_millis(base));
                    if let Some(ticket) =
                        submit_one(&mut client, &mut tally, &mut jitter, job)
                    {
                        pending.push((ticket, job.submitted));
                    }
                }
                None => {
                    tally.rejected += 1;
                    tally.rejected_without_signal += 1;
                }
            }
        }
        // A short sub-batch answer loses the tail items.
        if responses.len() < chunk.len() {
            tally.transport_errors += (chunk.len() - responses.len()) as u64;
        }
    }
    // Collection phase.
    for chunk in pending.chunks(batch) {
        if batch == 1 {
            let (ticket, submitted) = chunk[0];
            match client.result_batch(vec![ticket], Some(args.timeout_ms)) {
                Ok(responses) if responses.len() == 1 => {
                    record_result(&mut tally, &responses[0], submitted);
                }
                Ok(_) | Err(_) => {
                    eprintln!("ra-loadgen: result: ticket {ticket} got no answer");
                    tally.transport_errors += 1;
                }
            }
            continue;
        }
        let tickets: Vec<u64> = chunk.iter().map(|&(ticket, _)| ticket).collect();
        match client.result_batch(tickets, Some(args.timeout_ms)) {
            Ok(responses) if responses.len() == chunk.len() => {
                for (&(_, submitted), response) in chunk.iter().zip(&responses) {
                    record_result(&mut tally, response, submitted);
                }
            }
            Ok(responses) => {
                eprintln!(
                    "ra-loadgen: result_batch: {} answers for {} tickets",
                    responses.len(),
                    chunk.len()
                );
                tally.transport_errors += 1;
            }
            Err(err) => {
                eprintln!("ra-loadgen: result_batch: {err}");
                tally.transport_errors += 1;
            }
        }
    }
    tally.bytes_sent = client.bytes_sent();
    tally.bytes_received = client.bytes_received();
    tally
}

/// One `shard N:` line per backend the relay fronts — health state and
/// each live node's share of the work (its own counters).
fn report_shards(args: &Args) {
    let nodes = match WireClient::connect(args.addr.as_str()).and_then(|mut c| c.node_stats()) {
        Ok(nodes) => nodes,
        Err(err) => {
            eprintln!("ra-loadgen: node_stats: {err}");
            return;
        }
    };
    let Some(Json::Arr(rows)) = nodes.get("nodes") else {
        return;
    };
    for row in rows {
        let num = |key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "shard {}: state={} submitted={} completed={} cache_hits={} coalesced={} \
             queue_depth={} rtt_ns={}",
            num("node"),
            row.get("state").and_then(Json::as_str).unwrap_or("?"),
            num("submitted"),
            num("completed"),
            num("cache_hits"),
            num("coalesced"),
            num("queue_depth"),
            num("rtt_ns")
        );
    }
}

/// What one overload step observed, across all connections.
#[derive(Default)]
struct StepTally {
    /// Submissions offered (accepted or shed — not transport errors).
    offered: u64,
    /// Terminal completed/cached answers collected.
    answered: u64,
    /// Answers at `fidelity=reciprocal`.
    full: u64,
    /// Answers at a cheaper rung.
    degraded: u64,
    /// Answers served from a memo/edge cache.
    cached: u64,
    /// `queue_full` for submissions that withheld `allow_degraded`.
    shed: u64,
    /// `queue_full` for *consenting* submissions — the acceptance
    /// criterion says this must stay zero.
    shed_consenting: u64,
    /// Completed answers missing the fidelity tag — must stay zero.
    tag_missing: u64,
    /// Jobs that finished failed/poisoned.
    failed: u64,
    transport_errors: u64,
}

impl StepTally {
    fn absorb(&mut self, other: StepTally) {
        self.offered += other.offered;
        self.answered += other.answered;
        self.full += other.full;
        self.degraded += other.degraded;
        self.cached += other.cached;
        self.shed += other.shed;
        self.shed_consenting += other.shed_consenting;
        self.tag_missing += other.tag_missing;
        self.failed += other.failed;
        self.transport_errors += other.transport_errors;
    }
}

/// Classifies one collected outcome into the step tally.
fn record_overload_result(tally: &mut StepTally, response: &Response) {
    match response {
        Response::Outcome(ok) => match ok.outcome.as_str() {
            "completed" | "cached" => {
                tally.answered += 1;
                if ok.outcome == "cached" {
                    tally.cached += 1;
                }
                match ok.body.as_ref().and_then(|b| b.fidelity.as_deref()) {
                    Some("reciprocal") => tally.full += 1,
                    Some(_) => tally.degraded += 1,
                    None => tally.tag_missing += 1,
                }
            }
            "failed" | "poisoned" => tally.failed += 1,
            // Cancelled/expired never happens here (no deadlines set);
            // count it against the run rather than ignore it.
            _ => tally.failed += 1,
        },
        Response::Error(err) => {
            eprintln!("ra-loadgen: overload result: {} ({})", err.code.as_str(), err.verb);
            tally.transport_errors += 1;
        }
        other => {
            eprintln!("ra-loadgen: odd overload result {other:?}");
            tally.transport_errors += 1;
        }
    }
}

/// One connection's closed-loop calibration: submit one full-fidelity
/// job at a time, wait for its answer, repeat until the deadline.
fn calibrate_connection(args: &Args, seeds: &std::sync::atomic::AtomicU64, until: Instant) -> u64 {
    use std::sync::atomic::Ordering;
    let mut client = match WireClient::connect(args.addr.as_str()) {
        Ok(client) => client.with_binary(args.binary),
        Err(err) => {
            eprintln!("ra-loadgen: connect {}: {err}", args.addr);
            return 0;
        }
    };
    let mut answered = 0;
    while Instant::now() < until {
        let seed = seeds.fetch_add(1, Ordering::Relaxed);
        let item = SubmitItem::new(format!("{} seed={}", args.spec, seed)).priority("normal");
        let Ok(responses) = client.submit_batch(vec![item]) else {
            break;
        };
        let Some(Response::Submit(ok)) = responses.first() else {
            // Calibration backs off on queue_full instead of counting it:
            // the goal is a service-rate estimate, not a stress run.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        match client.result_batch(vec![ok.ticket], Some(args.timeout_ms)) {
            Ok(responses) if matches!(responses.first(), Some(Response::Outcome(_))) => {
                answered += 1;
            }
            _ => break,
        }
    }
    answered
}

/// One connection's share of a ramp step: paced open-loop submits for
/// `duration`, then collect every accepted ticket.
fn overload_step_connection(
    args: &Args,
    client_id: usize,
    interval: Duration,
    duration: Duration,
    seeds: &std::sync::atomic::AtomicU64,
) -> StepTally {
    use std::sync::atomic::Ordering;
    let mut tally = StepTally::default();
    let mut client = match WireClient::connect(args.addr.as_str()) {
        Ok(client) => client.with_binary(args.binary),
        Err(err) => {
            eprintln!("ra-loadgen: connect {}: {err}", args.addr);
            tally.transport_errors += 1;
            return tally;
        }
    };
    let mut pending: Vec<u64> = Vec::new();
    let end = Instant::now() + duration;
    let mut next = Instant::now();
    while Instant::now() < end {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += interval;
        let seed = seeds.fetch_add(1, Ordering::Relaxed);
        let strict = args.strict_every > 0 && seed.is_multiple_of(args.strict_every as u64);
        let mut item = SubmitItem::new(format!("{} seed={}", args.spec, seed))
            .priority(PRIORITIES[seed as usize % PRIORITIES.len()])
            .client(format!("loadgen-{client_id}"));
        if !strict {
            item = item.allow_degraded(true);
        }
        let responses = match client.submit_batch(vec![item]) {
            Ok(responses) => responses,
            Err(err) => {
                eprintln!("ra-loadgen: overload submit: {err}");
                tally.transport_errors += 1;
                continue;
            }
        };
        match responses.first() {
            Some(Response::Submit(ok)) => {
                tally.offered += 1;
                pending.push(ok.ticket);
            }
            Some(Response::Error(err)) if err.code == ErrorCode::QueueFull => {
                tally.offered += 1;
                if strict {
                    tally.shed += 1;
                } else {
                    tally.shed_consenting += 1;
                }
            }
            other => {
                eprintln!("ra-loadgen: odd overload submit response {other:?}");
                tally.transport_errors += 1;
            }
        }
    }
    for chunk in pending.chunks(16) {
        match client.result_batch(chunk.to_vec(), Some(args.timeout_ms)) {
            Ok(responses) if responses.len() == chunk.len() => {
                for response in &responses {
                    record_overload_result(&mut tally, response);
                }
            }
            Ok(responses) => {
                eprintln!(
                    "ra-loadgen: overload collect: {} answers for {} tickets",
                    responses.len(),
                    chunk.len()
                );
                tally.transport_errors += 1;
            }
            Err(err) => {
                eprintln!("ra-loadgen: overload collect: {err}");
                tally.transport_errors += 1;
            }
        }
    }
    tally
}

/// One server-stats counter, fresh connection each poll.
fn server_stat(args: &Args, key: &str) -> u64 {
    WireClient::connect(args.addr.as_str())
        .and_then(|mut c| c.stats())
        .ok()
        .and_then(|stats| stats.get(key).and_then(Json::as_u64))
        .unwrap_or(0)
}

/// `--overload`: measure closed-loop full-fidelity capacity, then ramp
/// an open-loop arrival rate through `--steps` multiples of it. Each
/// step prints one JSON curve row (`overload: {...}`); the run ends
/// with a bounded wait for a background upgrade to land.
fn run_overload(args: &Args) -> ExitCode {
    use std::sync::atomic::AtomicU64;
    let seeds = AtomicU64::new(0x10_0000);
    let upgraded_base = server_stat(args, "upgraded");

    // Closed-loop calibration: `--workers` connections, one in-flight
    // full-fidelity job each — the sustainable service rate.
    let calib = Duration::from_millis(args.step_ms.clamp(500, 5_000));
    let started = Instant::now();
    let until = Instant::now() + calib;
    let answered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.workers)
            .map(|_| scope.spawn(|| calibrate_connection(args, &seeds, until)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    let capacity = answered as f64 / started.elapsed().as_secs_f64();
    if answered == 0 || capacity <= 0.0 {
        eprintln!("ra-loadgen: overload calibration produced no completions");
        return ExitCode::FAILURE;
    }
    println!(
        "overload_capacity: {capacity:.1} jobs/s closed-loop full fidelity \
         ({answered} jobs over {:.2} s, {} connections)",
        started.elapsed().as_secs_f64(),
        args.workers
    );

    let mut total = StepTally::default();
    let duration = Duration::from_millis(args.step_ms);
    for (step, &multiplier) in args.steps.iter().enumerate() {
        let rate = capacity * multiplier;
        let per_conn = (rate / args.workers as f64).max(0.1);
        let interval = Duration::from_secs_f64(1.0 / per_conn);
        let step_started = Instant::now();
        let mut tally = StepTally::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.workers)
                .map(|client_id| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        overload_step_connection(args, client_id, interval, duration, seeds)
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(t) => tally.absorb(t),
                    Err(_) => tally.transport_errors += 1,
                }
            }
        });
        let elapsed = step_started.elapsed().as_secs_f64();
        let goodput = tally.answered as f64 / elapsed;
        println!(
            "overload: {{\"step\":{step},\"multiplier\":{multiplier:.2},\
             \"offered_rate\":{rate:.1},\"offered\":{},\"answered\":{},\
             \"full\":{},\"degraded\":{},\"cached\":{},\"shed\":{},\
             \"shed_consenting\":{},\"failed\":{},\"goodput\":{goodput:.1},\
             \"goodput_ratio\":{:.3},\"brownout\":{},\"elapsed_s\":{elapsed:.2}}}",
            tally.offered,
            tally.answered,
            tally.full,
            tally.degraded,
            tally.cached,
            tally.shed,
            tally.shed_consenting,
            tally.failed,
            goodput / capacity,
            server_stat(args, "brownout"),
        );
        total.absorb(tally);
    }

    // Bounded wait for the background upgrader: at least one degraded
    // answer must be re-run at full fidelity (if any were degraded).
    let mut upgraded = server_stat(args, "upgraded").saturating_sub(upgraded_base);
    if total.degraded > 0 {
        let deadline = Instant::now() + Duration::from_secs(30);
        while upgraded == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            upgraded = server_stat(args, "upgraded").saturating_sub(upgraded_base);
        }
    }
    println!(
        "overload_upgrades: upgraded={upgraded} pending={}",
        server_stat(args, "upgrades_pending")
    );
    println!(
        "overload totals: offered={} answered={} full={} degraded={} cached={} shed={} \
         shed_consenting={} tag_missing={} failed={} transport_errors={}",
        total.offered,
        total.answered,
        total.full,
        total.degraded,
        total.cached,
        total.shed,
        total.shed_consenting,
        total.tag_missing,
        total.failed,
        total.transport_errors
    );

    if total.transport_errors > 0
        || total.shed_consenting > 0
        || total.tag_missing > 0
        || total.failed > 0
    {
        eprintln!(
            "ra-loadgen: OVERLOAD FAILED (transport_errors={}, shed_consenting={}, \
             tag_missing={}, failed={})",
            total.transport_errors, total.shed_consenting, total.tag_missing, total.failed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.overload {
        println!(
            "loadgen overload: steps {:?} x capacity, {} ms/step, {} connections, \
             strict every {} -> {}",
            args.steps, args.step_ms, args.workers, args.strict_every, args.addr
        );
        return run_overload(&args);
    }
    println!(
        "loadgen: {} jobs, {} connections, {} distinct specs, codec={}, batch={} -> {}",
        args.jobs,
        args.workers,
        args.distinct,
        if args.binary { "binary" } else { "json" },
        args.batch.max(1),
        args.addr
    );
    let started = Instant::now();
    let slices: Vec<Vec<usize>> = (0..args.workers)
        .map(|w| (w..args.jobs).step_by(args.workers).collect())
        .collect();
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let args = &args;
        let handles: Vec<_> = slices
            .iter()
            .enumerate()
            .map(|(client_id, jobs)| scope.spawn(move || drive_connection(args, jobs, client_id)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(tally) => total.absorb(tally),
                Err(_) => total.transport_errors += 1,
            }
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "dispositions: enqueued={} coalesced={} cached={} rejected={} \
         rejected_without_signal={} retries={}",
        total.enqueued,
        total.coalesced,
        total.cached_submit,
        total.rejected,
        total.rejected_without_signal,
        total.retries
    );
    println!(
        "outcomes: completed={} cached={} failed={} cancelled={} expired={}",
        total.completed, total.cached_outcome, total.failed, total.cancelled, total.expired
    );
    let mean = if total.latency_ms.is_empty() {
        0.0
    } else {
        total.latency_ms.iter().sum::<f64>() / total.latency_ms.len() as f64
    };
    println!(
        "latency ms: p50={:.2} p95={:.2} p99={:.2} mean={:.2}",
        percentile(&total.latency_ms, 50.0),
        percentile(&total.latency_ms, 95.0),
        percentile(&total.latency_ms, 99.0),
        mean
    );
    let finished = total.completed + total.cached_outcome;
    println!(
        "throughput: {:.1} jobs/s over {:.2} s",
        if elapsed > 0.0 { finished as f64 / elapsed } else { 0.0 },
        elapsed
    );
    let per_job = if finished > 0 {
        (total.bytes_sent + total.bytes_received) as f64 / finished as f64
    } else {
        0.0
    };
    println!(
        "bytes: sent={} received={} per_job={per_job:.1}",
        total.bytes_sent, total.bytes_received
    );

    match WireClient::connect(args.addr.as_str()).and_then(|mut c| c.stats()) {
        Ok(stats) => {
            let num = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
            let ratio = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "server cache: store_hits={} store_misses={} insertions={} evictions={} \
                 hit_ratio={:.3} memo_ratio={:.3}",
                num("store_hits"),
                num("store_misses"),
                num("insertions"),
                num("evictions"),
                ratio("hit_ratio"),
                ratio("memo_ratio")
            );
            // Pointed at a relay instead of a single backend, the stats
            // snapshot carries the cluster-level counters too: surface
            // the forwarding retries and failover re-routes so chaos
            // runs can grep for them.
            if stats.get("role").and_then(Json::as_str) == Some("relay") {
                println!(
                    "relay: forwards={} retries={} reroutes={} failovers={} edge_hits={} \
                     nodes_routable={}/{}",
                    num("relay_forwards"),
                    num("relay_retries"),
                    num("relay_reroutes"),
                    num("relay_failovers"),
                    num("relay_edge_hits"),
                    num("nodes_routable"),
                    num("nodes")
                );
                report_shards(&args);
            }
        }
        Err(err) => {
            eprintln!("ra-loadgen: stats: {err}");
            total.transport_errors += 1;
        }
    }

    if total.transport_errors > 0 || total.rejected_without_signal > 0 || total.failed > 0 {
        eprintln!(
            "ra-loadgen: FAILED (transport_errors={}, rejected_without_signal={}, failed={})",
            total.transport_errors, total.rejected_without_signal, total.failed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Nearest-rank percentile of an unsorted sample (0 if empty). `p` is in
/// percent: 50 is the median, 99 the tail.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0, "p0 clamps to the minimum");
        // Order must not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), 95.0);
    }
}

//! `serve_sweep_relay`: the write path. Two closed-loop binary
//! connections push batches of distinct fresh jobs through an in-process
//! `RelayServer` to two journaled, spilling backends.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_cosim::RunResult;
use ra_obs::ObsSink;
use ra_serve::cluster::RelayServer;
use ra_serve::proto::{Request, Response, SubmitItem};
use ra_serve::{
    JobService, JobSpec, Relay, RelayConfig, RelayHandle, ServeConfig, ServerHandle, WireClient,
    WireServer,
};

use super::{
    answer_fingerprint, job_seed, latency_error_pct, parse_spec, run_direct, run_lanes, Exchange,
    JobSample, LayerInputs, Length, Phase, ServiceCounts, Workload, REFERENCE_SEED,
};
use crate::check::{Fingerprint, Tally};
use crate::metrics::Metrics;
use crate::trace::Tracer;

const CONNECTIONS: usize = 2;
const BACKENDS: usize = 2;
pub const BATCH: usize = 8;
/// About 3.5 ms of simulation, so the serve path is roughly a tenth of
/// each job and neither it nor the simulator hides the other.
const SPEC: &str = "target=4x4 app=water mode=reciprocal:quantum=200,workers=0 instructions=60";
/// Reference seeds `1..=REFERENCE_SPECS`: `latency_err_pct` is their mean
/// error, and the set-up checks each relayed answer against a direct run.
const REFERENCE_SPECS: u64 = 32;
/// Fresh batches the set-up pushes through the relay after the reference
/// ones, so that a set-up is more than 4 s of repeatable work and the
/// servers' stores, journals and spill files are warm.
const WARMUP_BATCHES: u64 = 160;
const RESULT_TIMEOUT_MS: u64 = 60_000;
/// A backend writes about a megabyte of journal in a run, which is the
/// default compaction threshold: some runs compacted once and some never,
/// and a compaction reads the whole file, so `peak_rss_mb` had two modes
/// 1.4 MB apart. At a quarter of it every run compacts several times.
const JOURNAL_COMPACT_BYTES: u64 = 256 << 10;
/// Measured jobs of each connection that `verify` re-runs directly.
const VERIFIED_PER_LANE: usize = 8;

struct Env {
    relay: RelayHandle,
    backends: Vec<ServerHandle>,
    relay_addr: SocketAddr,
    dir: PathBuf,
    baseline: Arc<RunResult>,
    exchange: Exchange,
}

pub struct SweepRelay {
    run_seed: u64,
    /// Batches each connection has sent, so that a second measured phase
    /// (a traced run has two) never repeats a seed.
    sent: [u64; CONNECTIONS],
    sampled: Vec<(u64, Fingerprint)>,
    env: Option<Env>,
}

impl SweepRelay {
    pub fn new(run_seed: u64) -> SweepRelay {
        SweepRelay {
            run_seed,
            sent: [0; CONNECTIONS],
            sampled: Vec::new(),
            env: None,
        }
    }
}

fn spec(seed: u64) -> JobSpec {
    parse_spec(&format!("{SPEC} seed={seed}"))
}

/// Seeds of the `batch`-th batch of connection `lane`. Set-up seeds stay
/// below 10^9 and measured ones above it, so no measured job is a memo
/// hit.
fn measured_seeds(run_seed: u64, lane: u64, batch: u64) -> Vec<u64> {
    let base = (job_seed(run_seed, lane) + 1) * 1_000_000_000;
    (0..BATCH as u64)
        .map(|i| base + batch * BATCH as u64 + i)
        .collect()
}

/// One batch: `submit_batch`, then `result_batch` for its tickets.
fn push_batch(
    client: &mut WireClient,
    seeds: &[u64],
    tracer: &mut Tracer,
    root: u64,
    job: u64,
) -> Result<(Vec<Fingerprint>, Exchange), String> {
    let items = seeds
        .iter()
        .map(|seed| SubmitItem::new(format!("{SPEC} seed={seed}")))
        .collect();
    let submit = Request::SubmitBatch(items);
    let span = tracer.begin("serve.wire.submit_batch", Some(root), job);
    let submitted = client.call_request(&submit);
    tracer.end(span);
    let submitted = submitted.map_err(|err| format!("submit_batch: {err}"))?;
    let Response::Batch(receipts) = &submitted else {
        return Err(format!("submit_batch answered {submitted:?}"));
    };
    let mut tickets = Vec::with_capacity(receipts.len());
    for receipt in receipts {
        match receipt {
            Response::Submit(ok) => tickets.push(ok.ticket),
            other => return Err(format!("submit_batch item answered {other:?}")),
        }
    }
    let collect = Request::ResultBatch {
        tickets,
        timeout_ms: Some(RESULT_TIMEOUT_MS),
    };
    let span = tracer.begin("serve.wire.result_batch", Some(root), job);
    let outcomes = client.call_request(&collect);
    tracer.end(span);
    let outcomes = outcomes.map_err(|err| format!("result_batch: {err}"))?;
    let Response::Batch(items) = &outcomes else {
        return Err(format!("result_batch answered {outcomes:?}"));
    };
    if items.len() != seeds.len() {
        return Err(format!("{} answers for {} jobs", items.len(), seeds.len()));
    }
    let fingerprints = items
        .iter()
        .map(answer_fingerprint)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((fingerprints, vec![(submit, submitted), (collect, outcomes)]))
}

impl Workload for SweepRelay {
    fn job_spec_text(&self) -> String {
        format!("{SPEC} seed=<derived from --seed>")
    }

    fn reference_spec_text(&self) -> String {
        format!("{SPEC} seed=1..={REFERENCE_SPECS}")
    }

    fn setup(&mut self, tally: &mut Tally) -> Result<f64, String> {
        let io = |err: std::io::Error| err.to_string();
        let dir = PathBuf::from(format!("benchmark/out/tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut backends = Vec::new();
        for index in 0..BACKENDS {
            let config = ServeConfig {
                workers: 1,
                spill: Some(dir.join(format!("backend{index}.spill"))),
                journal: Some(dir.join(format!("backend{index}.journal"))),
                fsync_every: 8,
                journal_compact_bytes: JOURNAL_COMPACT_BYTES,
                ..ServeConfig::default()
            };
            let service = JobService::start(config, ObsSink::disabled()).map_err(io)?;
            backends.push(
                WireServer::bind("127.0.0.1:0", service)
                    .and_then(WireServer::spawn)
                    .map_err(io)?,
            );
        }
        let config = RelayConfig {
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            ..RelayConfig::default()
        };
        let relay = Relay::new(config, ObsSink::disabled())
            .and_then(|relay| RelayServer::bind("127.0.0.1:0", relay))
            .and_then(RelayServer::spawn)
            .map_err(io)?;
        let relay_addr = relay.addr();

        // Truth and direct answers for the reference seeds.
        let mut errors = Vec::new();
        let mut direct = Vec::new();
        for seed in REFERENCE_SEED..REFERENCE_SEED + REFERENCE_SPECS {
            let reference = spec(seed);
            let answer = run_direct(&reference)?;
            errors.push(latency_error_pct(&reference, &answer)?);
            direct.push(answer);
        }
        let error_pct = errors.iter().sum::<f64>() / errors.len() as f64;

        // Warm-up pass through the relay: the reference seeds first, each
        // relayed answer checked against its direct run, then fresh seeds.
        let mut client = WireClient::connect(relay_addr)
            .map_err(io)?
            .with_binary(true);
        let mut off = Tracer::new(false, Instant::now(), 0);
        let mut exchange = Vec::new();
        let reference_batches = REFERENCE_SPECS / BATCH as u64;
        for batch in 0..reference_batches + WARMUP_BATCHES {
            let first = REFERENCE_SEED + batch * BATCH as u64;
            let seeds: Vec<u64> = (first..first + BATCH as u64).collect();
            let (got, messages) = push_batch(&mut client, &seeds, &mut off, 0, 0)?;
            if batch < reference_batches {
                for (offset, fingerprint) in got.iter().enumerate() {
                    let want = &direct[batch as usize * BATCH + offset];
                    tally.require_same(
                        "relayed against direct RunSpec",
                        *fingerprint,
                        Fingerprint::of_run(want),
                    );
                }
            }
            if batch == 0 {
                exchange = messages;
            }
        }
        self.env = Some(Env {
            relay,
            backends,
            relay_addr,
            dir,
            baseline: Arc::new(direct.swap_remove(0)),
            exchange,
        });
        Ok(error_pct)
    }

    fn measure(&mut self, length: Length, traced: bool) -> Phase {
        let env = self.env.as_ref().expect("set up before measure");
        let (run_seed, sent) = (self.run_seed, self.sent);
        let deadline = Duration::from_secs_f64(length.seconds());
        let (phase, kept) = run_lanes(CONNECTIONS, |lane, start| {
            let mut phase = Phase::default();
            let mut sampled = Vec::new();
            let mut batch = sent[lane];
            let mut tracer = Tracer::new(traced, start, lane as u64);
            let mut client = match WireClient::connect(env.relay_addr) {
                Ok(client) => client.with_binary(true),
                Err(err) => {
                    phase.tally.job_failed(format!("connect: {err}"));
                    return (phase, (batch, sampled));
                }
            };
            while start.elapsed() < deadline {
                let seeds = measured_seeds(run_seed, lane as u64, batch);
                batch += 1;
                let job = ((lane as u64) << 32) | batch;
                let begun = start.elapsed();
                let root = tracer.begin("batch", None, job);
                let answer = push_batch(&mut client, &seeds, &mut tracer, root, job);
                tracer.end(root);
                let sample = JobSample::ending_now(start, begun);
                match answer {
                    Ok((fingerprints, _)) => {
                        for (seed, fingerprint) in seeds.iter().zip(fingerprints) {
                            phase.tally.job_ok();
                            phase.jobs.push(sample);
                            if sampled.len() < VERIFIED_PER_LANE {
                                sampled.push((*seed, fingerprint));
                            }
                        }
                    }
                    Err(err) => {
                        // The connection is of no more use.
                        for _ in &seeds {
                            phase.tally.job_failed(err.clone());
                        }
                        break;
                    }
                }
            }
            phase.spans = tracer.into_spans();
            (phase, (batch, sampled))
        });
        for (lane, (batches, sampled)) in kept.into_iter().enumerate() {
            self.sent[lane] = batches;
            self.sampled.extend(sampled);
        }
        phase
    }

    fn verify(&mut self, tally: &mut Tally) {
        let env = self.env.as_ref().expect("set up before verify");
        // Measured answers against direct runs of the same specs.
        for (seed, served) in &self.sampled {
            match run_direct(&spec(*seed)) {
                Ok(direct) => tally.require_same(
                    "measured answer against direct RunSpec",
                    *served,
                    Fingerprint::of_run(&direct),
                ),
                Err(err) => tally.violation(err),
            }
        }
        // JSON equal to binary equal to relayed, on one backend.
        let reference = [REFERENCE_SEED];
        let want = Fingerprint::of_run(&env.baseline);
        let mut off = Tracer::new(false, Instant::now(), 0);
        let routes = [
            ("JSON to a backend", env.backends[0].addr(), false),
            ("binary to a backend", env.backends[0].addr(), true),
            ("JSON through the relay", env.relay_addr, false),
        ];
        for (what, addr, binary) in routes {
            let answer = WireClient::connect(addr)
                .map_err(|err| err.to_string())
                .and_then(|c| push_batch(&mut c.with_binary(binary), &reference, &mut off, 0, 0));
            match answer {
                Ok((got, _)) => tally.require_same(what, got[0], want),
                Err(err) => tally.violation(format!("{what}: {err}")),
            }
        }
    }

    fn layer_inputs(&self) -> LayerInputs {
        let env = self.env.as_ref().expect("set up before layers");
        LayerInputs {
            reference: spec(REFERENCE_SEED),
            baseline: env.baseline.clone(),
            exchange: env.exchange.clone(),
            jobs_per_exchange: BATCH,
        }
    }

    fn layers_sum_ms(&self, m: &Metrics, _traced: &Phase) -> f64 {
        // A batch's latency in a closed loop: both connections keep a
        // batch in flight and each backend has one worker, so a batch
        // waits for about `CONNECTIONS * BATCH / BACKENDS` services; each
        // is the simulation plus the scheduler's cost of a fresh job
        // (admission, journal, store insert, spill). Its two round trips
        // pay the relay hop and the socket, and its messages the codec.
        let env = self.env.as_ref().expect("set up before layers");
        let services = (CONNECTIONS * BATCH / BACKENDS) as f64;
        let service_ms = env.baseline.wall.as_secs_f64() * 1e3
            + m.need("serve.scheduler.fresh_overhead_us") / 1e3;
        let codec_ns = m.need("serve.codec.bin_encode_ns") + m.need("serve.codec.bin_decode_ns");
        let hop_us = m.need("serve.cluster.relay_hop_us") + m.need("serve.wire.bin_residual_us");
        services * service_ms + 2.0 * hop_us / 1e3 + BATCH as f64 * codec_ns / 1e6
    }

    fn add_service_counts(&self, counts: &mut ServiceCounts) {
        if let Some(env) = &self.env {
            for backend in &env.backends {
                counts.add_service(&backend.service().stats());
            }
            counts.add_relay(&env.relay.relay().stats());
        }
    }

    fn teardown(&mut self) {
        if let Some(env) = self.env.take() {
            env.relay.stop();
            for backend in env.backends {
                backend.stop();
            }
            let _ = std::fs::remove_dir_all(&env.dir);
        }
    }
}

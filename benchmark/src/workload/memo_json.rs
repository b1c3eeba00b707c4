//! `serve_memo_json`: the read path. Two closed-loop line-JSON
//! connections ask an in-process `WireServer` for results its store
//! already holds; the simulator does nothing in the measured phase.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_cosim::RunResult;
use ra_obs::ObsSink;
use ra_serve::proto::{Request, Response, SubmitItem};
use ra_serve::{JobService, JobSpec, ServeConfig, ServerHandle, WireClient, WireServer};

use super::{
    answer_fingerprint, job_seed, latency_error_pct, parse_spec, run_direct, run_lanes, Exchange,
    JobSample, LayerInputs, Length, Phase, ServiceCounts, Workload, REFERENCE_SEED,
};
use crate::check::{Fingerprint, Tally};
use crate::metrics::Metrics;
use crate::trace::Tracer;

const CONNECTIONS: usize = 2;
/// Distinct results the store is filled with in set-up.
const STORED_SPECS: u64 = 8;
/// The first of them have seeds `1..=REFERENCE_SPECS` whatever `--seed`
/// is: `latency_err_pct` is their mean error, and the set-up checks each
/// served answer against a direct run.
const REFERENCE_SPECS: u64 = 2;
/// 300 instructions per core make the set-up's eight fresh runs and its
/// two direct and two truth runs more than 4 s of simulation; the
/// measured phase only reads results, whose size does not depend on it.
const SPEC: &str = "target=8x8 app=ocean mode=reciprocal:quantum=2000,workers=0 instructions=300";
const RESULT_TIMEOUT_MS: u64 = 60_000;

struct Env {
    server: ServerHandle,
    addr: SocketAddr,
    /// Spec text and the fingerprint the fill run produced.
    stored: Vec<(String, Fingerprint)>,
    baseline: Arc<RunResult>,
    exchange: Exchange,
}

pub struct MemoJson {
    run_seed: u64,
    env: Option<Env>,
}

impl MemoJson {
    pub fn new(run_seed: u64) -> MemoJson {
        MemoJson {
            run_seed,
            env: None,
        }
    }

    fn spec(seed: u64) -> JobSpec {
        parse_spec(&format!("{SPEC} seed={seed}"))
    }
}

struct Answer {
    fingerprint: Fingerprint,
    /// How the submit was admitted: `cached` for a memo hit.
    disposition: String,
    exchange: Exchange,
}

/// One unbatched job: `submit`, then `result` for the ticket it returned.
fn ask(
    client: &mut WireClient,
    spec: &str,
    tracer: &mut Tracer,
    root: u64,
    job: u64,
) -> Result<Answer, String> {
    let submit = Request::Submit(SubmitItem::new(spec));
    let span = tracer.begin("serve.wire.submit", Some(root), job);
    let submitted = client.call_request(&submit);
    tracer.end(span);
    let submitted = submitted.map_err(|err| format!("submit: {err}"))?;
    let Response::Submit(ok) = &submitted else {
        return Err(format!("submit answered {submitted:?}"));
    };
    let disposition = ok.disposition.clone();
    let result = Request::Result {
        ticket: ok.ticket,
        timeout_ms: Some(RESULT_TIMEOUT_MS),
    };
    let span = tracer.begin("serve.wire.result", Some(root), job);
    let outcome = client.call_request(&result);
    tracer.end(span);
    let outcome = outcome.map_err(|err| format!("result: {err}"))?;
    Ok(Answer {
        fingerprint: answer_fingerprint(&outcome)?,
        disposition,
        exchange: vec![(submit, submitted), (result, outcome)],
    })
}

impl Workload for MemoJson {
    fn job_spec_text(&self) -> String {
        format!("{SPEC} seed=<derived from --seed>")
    }

    fn reference_spec_text(&self) -> String {
        format!("{SPEC} seed=1..={REFERENCE_SPECS}")
    }

    fn setup(&mut self, tally: &mut Tally) -> Result<f64, String> {
        let io = |err: std::io::Error| err.to_string();
        // Direct answers and their error against lock-step truth first,
        // while the process has one thread: the allocator's state, and
        // with it `peak_rss_mb`, then repeats from run to run.
        let references: Vec<JobSpec> = (0..REFERENCE_SPECS)
            .map(|i| MemoJson::spec(REFERENCE_SEED + i))
            .collect();
        let mut errors = Vec::new();
        let mut direct = Vec::new();
        for reference in &references {
            let answer = run_direct(reference)?;
            errors.push(latency_error_pct(reference, &answer)?);
            direct.push(answer);
        }
        let error_pct = errors.iter().sum::<f64>() / errors.len() as f64;

        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service = JobService::start(config, ObsSink::disabled()).map_err(io)?;
        let server = WireServer::bind("127.0.0.1:0", service)
            .and_then(WireServer::spawn)
            .map_err(io)?;
        let addr = server.addr();

        // Fill: the reference seeds, then seeds derived from `--seed`,
        // all fresh runs.
        let derived = (REFERENCE_SPECS..STORED_SPECS)
            .map(|index| MemoJson::spec(job_seed(self.run_seed, index)));
        let texts: Vec<String> = references
            .iter()
            .cloned()
            .chain(derived)
            .map(|spec| spec.canonical())
            .collect();
        let mut client = WireClient::connect(addr).map_err(io)?;
        let mut off = Tracer::new(false, Instant::now(), 0);
        let mut tickets = Vec::new();
        for text in &texts {
            match client.call_request(&Request::Submit(SubmitItem::new(text.as_str()))) {
                Ok(Response::Submit(ok)) => tickets.push(ok.ticket),
                other => return Err(format!("fill submit answered {other:?}")),
            }
        }
        let mut stored = Vec::new();
        for (text, ticket) in texts.iter().zip(tickets) {
            let request = Request::Result {
                ticket,
                timeout_ms: Some(RESULT_TIMEOUT_MS),
            };
            let outcome = client.call_request(&request).map_err(io)?;
            stored.push((text.clone(), answer_fingerprint(&outcome)?));
        }
        // A served answer is the direct `RunSpec` answer.
        for (answer, (_, served)) in direct.iter().zip(&stored) {
            tally.require_same(
                "served against direct RunSpec",
                *served,
                Fingerprint::of_run(answer),
            );
        }

        // Warm-up pass: every stored spec once, as a memo hit.
        let mut exchange = Vec::new();
        for (index, (text, want)) in stored.iter().enumerate() {
            let answer = ask(&mut client, text, &mut off, 0, 0)?;
            tally.require_same("memo hit against fill run", answer.fingerprint, *want);
            if answer.disposition != "cached" {
                tally.violation(format!(
                    "warm-up of `{text}` was `{}`, not cached",
                    answer.disposition
                ));
            }
            if index == 0 {
                exchange = answer.exchange;
            }
        }
        self.env = Some(Env {
            server,
            addr,
            stored,
            baseline: Arc::new(direct.swap_remove(0)),
            exchange,
        });
        Ok(error_pct)
    }

    fn measure(&mut self, length: Length, traced: bool) -> Phase {
        let env = self.env.as_ref().expect("set up before measure");
        let deadline = Duration::from_secs_f64(length.seconds());
        let (phase, _) = run_lanes(CONNECTIONS, |lane, start| {
            let mut phase = Phase::default();
            let mut tracer = Tracer::new(traced, start, lane as u64);
            let mut client = match WireClient::connect(env.addr) {
                Ok(client) => client,
                Err(err) => {
                    phase.tally.job_failed(format!("connect: {err}"));
                    return (phase, ());
                }
            };
            // Lanes start on different specs so that both do not ask for
            // the same key in step.
            let mut next = lane * env.stored.len() / CONNECTIONS;
            while start.elapsed() < deadline {
                let (text, want) = &env.stored[next % env.stored.len()];
                next += 1;
                let job = ((lane as u64) << 32) | next as u64;
                let begun = start.elapsed();
                let root = tracer.begin("job", None, job);
                let answer = ask(&mut client, text, &mut tracer, root, job);
                tracer.end(root);
                let sample = JobSample::ending_now(start, begun);
                match answer {
                    Ok(answer) if answer.disposition == "cached" => {
                        phase.tally.job_matches(text, answer.fingerprint, *want);
                        phase.jobs.push(sample);
                    }
                    Ok(answer) => phase
                        .tally
                        .job_failed(format!("`{text}` was `{}`, not cached", answer.disposition)),
                    Err(err) => {
                        // The connection is of no more use.
                        phase.tally.job_failed(format!("`{text}`: {err}"));
                        break;
                    }
                }
            }
            phase.spans = tracer.into_spans();
            (phase, ())
        });
        phase
    }

    fn verify(&mut self, _tally: &mut Tally) {}

    fn layer_inputs(&self) -> LayerInputs {
        let env = self.env.as_ref().expect("set up before layers");
        LayerInputs {
            reference: MemoJson::spec(REFERENCE_SEED),
            baseline: env.baseline.clone(),
            exchange: env.exchange.clone(),
            jobs_per_exchange: 1,
        }
    }

    fn layers_sum_ms(&self, m: &Metrics, _traced: &Phase) -> f64 {
        // Each of the job's four messages is encoded once and decoded
        // once; the scheduler answers a memoized submit and wait; each of
        // the two round trips pays the socket what a binary one pays.
        let codec_ns = m.need("serve.codec.json_encode_ns") + m.need("serve.codec.json_decode_ns");
        codec_ns / 1e6
            + m.need("serve.scheduler.memo_us") / 1e3
            + 2.0 * m.need("serve.wire.bin_residual_us") / 1e3
    }

    fn add_service_counts(&self, counts: &mut ServiceCounts) {
        if let Some(env) = &self.env {
            counts.add_service(&env.server.service().stats());
        }
    }

    fn teardown(&mut self) {
        if let Some(env) = self.env.take() {
            env.server.stop();
        }
    }
}

//! The `serve.*` layers, each through its public functions, on the
//! workload's own requests, responses and keys.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ra_obs::ObsSink;
use ra_serve::cluster::RelayServer;
use ra_serve::frame::{frame_bytes, step, FrameStep};
use ra_serve::proto::{Request, Response, SubmitItem};
use ra_serve::ring::DEFAULT_VNODES;
use ra_serve::{
    AdmissionConfig, AdmissionController, BinaryCodec, Codec, HashRing, JobKey, JobOutcome,
    JobService, JobSpec, Journal, JsonCodec, Priority, Relay, RelayConfig, ResultStore,
    ServeConfig, StoredResult, WireClient, WireServer,
};

use super::{median_ns, ns_per_op, timed};
use crate::check::Tally;
use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::workload::{parse_spec, LayerInputs, ServiceCounts};

/// The scheduler, wire and relay measurements ask for this job: a memo
/// hit costs the same whatever was simulated, and a fresh one must be
/// small enough that the scheduler's share of it can be seen.
const TINY: &str = "target=4x4 app=water mode=reciprocal:quantum=200,workers=0 instructions=60";
/// Distinct keys the store and journal measurements cycle through.
const KEYS: u64 = 512;
const FRESH_JOBS: u64 = 64;
/// One JSON round trip stalls for about 44 ms today, so the sample is the
/// smallest that leaves ten round trips beyond its 90th percentile.
const JSON_ROUND_TRIPS: usize = 104;
const BINARY_ROUND_TRIPS: usize = 2_000;

pub fn measure(
    inputs: &LayerInputs,
    dir: &Path,
    m: &mut Metrics,
    counts: &mut ServiceCounts,
    tally: &mut Tally,
) -> Result<(), String> {
    let keys: Vec<(JobKey, String)> = (0..KEYS)
        .map(|seed| {
            let spec = inputs.reference.clone().seed(1_000_000 + seed);
            (spec.job_hash(), spec.canonical())
        })
        .collect();
    timed("serve.spec, codec, frame", || {
        spec(&inputs.reference, m);
        codecs(inputs, m, tally);
    });
    timed("serve.store", || store(inputs, &keys, dir, m)).map_err(|e| e.to_string())?;
    timed("serve.journal", || journal(&keys, dir, m)).map_err(|e| e.to_string())?;
    timed("serve.admission, ring", || {
        admission(m);
        ring(&keys, m);
    });
    timed("serve.scheduler", || scheduler(m, counts))?;
    timed("serve.wire, cluster", || wire_and_relay(m, counts)).map_err(|e| e.to_string())
}

fn spec(reference: &JobSpec, m: &mut Metrics) {
    let text = reference.canonical();
    let ns = ns_per_op(64, || {
        let parsed: JobSpec = black_box(&text).parse().expect("canonical text parses");
        black_box(parsed.job_hash());
    });
    m.set("serve.spec.parse_hash_ns", ns);
}

/// What one codec puts on the wire for an exchange, and the payloads the
/// other side extracts from it.
struct Encoded {
    requests: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
    wire_bytes: usize,
}

fn encode(codec: &dyn Codec, exchange: &[(Request, Response)]) -> Encoded {
    let payload = |wire: Vec<u8>| match step(&wire) {
        // A binary message travels in a checksummed frame.
        FrameStep::Ok { payload, .. } => payload,
        // A JSON message is a line; its decoder takes it unterminated.
        _ => wire[..wire.len() - 1].to_vec(),
    };
    let mut encoded = Encoded {
        requests: Vec::new(),
        responses: Vec::new(),
        wire_bytes: 0,
    };
    for (request, response) in exchange {
        let (req, resp) = (
            codec.encode_request(request),
            codec.encode_response(response),
        );
        encoded.wire_bytes += req.len() + resp.len();
        encoded.requests.push(payload(req));
        encoded.responses.push(payload(resp));
    }
    encoded
}

/// Nanoseconds to encode, and to decode, every message of `exchange`;
/// `encoded` is what `encode` made of it.
fn codec_ns(codec: &dyn Codec, exchange: &[(Request, Response)], encoded: &Encoded) -> (f64, f64) {
    let encode_ns = ns_per_op(16, || {
        for (request, response) in exchange {
            black_box(codec.encode_request(black_box(request)));
            black_box(codec.encode_response(black_box(response)));
        }
    });
    let decode_ns = ns_per_op(16, || {
        for (request, response) in encoded.requests.iter().zip(&encoded.responses) {
            black_box(
                codec
                    .decode_request(black_box(request))
                    .expect("own encoding decodes"),
            );
            black_box(
                codec
                    .decode_response(black_box(response))
                    .expect("own encoding decodes"),
            );
        }
    });
    (encode_ns, decode_ns)
}

fn codecs(inputs: &LayerInputs, m: &mut Metrics, tally: &mut Tally) {
    let jobs = inputs.jobs_per_exchange as f64;
    let table: [(&dyn Codec, [&'static str; 3]); 2] = [
        (
            &JsonCodec,
            [
                "serve.codec.json_encode_ns",
                "serve.codec.json_decode_ns",
                "serve.codec.json_bytes_per_job",
            ],
        ),
        (
            &BinaryCodec,
            [
                "serve.codec.bin_encode_ns",
                "serve.codec.bin_decode_ns",
                "serve.codec.bin_bytes_per_job",
            ],
        ),
    ];
    for (codec, [encode_name, decode_name, bytes_name]) in table {
        let encoded = encode(codec, &inputs.exchange);
        for ((request, response), (req, resp)) in inputs
            .exchange
            .iter()
            .zip(encoded.requests.iter().zip(&encoded.responses))
        {
            let same = codec.decode_request(req).ok().as_ref() == Some(request)
                && codec.decode_response(resp).ok().as_ref() == Some(response);
            if !same {
                tally.violation(format!(
                    "{} does not round-trip `{}`",
                    codec.name(),
                    request.verb()
                ));
            }
        }
        let (encode_ns, decode_ns) = codec_ns(codec, &inputs.exchange, &encoded);
        m.set(encode_name, encode_ns / jobs);
        m.set(decode_name, decode_ns / jobs);
        m.set(bytes_name, encoded.wire_bytes as f64 / jobs);
    }
    // The frame checksum, on the largest binary payload of the exchange.
    let payload = encode(&BinaryCodec, &inputs.exchange)
        .responses
        .into_iter()
        .max_by_key(Vec::len)
        .expect("an exchange has messages");
    let ns = ns_per_op(64, || {
        black_box(step(black_box(&frame_bytes(black_box(&payload)))));
    });
    m.set(
        "serve.frame.checksum_ns_per_kb",
        ns * 1024.0 / payload.len() as f64,
    );
}

fn store(
    inputs: &LayerInputs,
    keys: &[(JobKey, String)],
    dir: &Path,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let stored = || StoredResult::full(inputs.baseline.clone());
    let config = ServeConfig::default();
    let new_store = || ResultStore::new(config.cache_capacity, config.cache_shards);

    let hot = new_store();
    for (key, text) in &keys[..8] {
        hot.insert(*key, text, stored());
    }
    let mut next = 0;
    let ns = ns_per_op(256, || {
        black_box(hot.get(keys[next % 8].0).expect("inserted above"));
        next += 1;
    });
    m.set("serve.store.get_hit_ns", ns);

    // Distinct keys over a full store: every insert evicts.
    let churn = new_store();
    let mut next = 0;
    let ns = ns_per_op(256, || {
        let (key, text) = &keys[next % keys.len()];
        black_box(churn.insert(*key, text, stored()));
        next += 1;
    });
    m.set("serve.store.insert_ns", ns);

    // With a spill log that syncs every eighth record, as the backends of
    // `serve_sweep_relay` run it; timed in groups of eight for that reason.
    let spilling = new_store().with_spill(&dir.join("store.spill"), 8)?;
    let mut groups = Vec::new();
    for group in keys.chunks(8) {
        let t0 = Instant::now();
        for (key, text) in group {
            spilling.insert(*key, text, stored());
        }
        groups.push(t0.elapsed().as_nanos() as f64 / group.len() as f64);
    }
    spilling.sync_spill()?;
    m.set(
        "serve.store.insert_spill_us",
        median(&groups).expect("keys are not empty") / 1e3,
    );
    m.set("serve.store.evictions", spilling.stats().evictions as f64);
    Ok(())
}

fn journal(keys: &[(JobKey, String)], dir: &Path, m: &mut Metrics) -> std::io::Result<()> {
    // An admit and a settle per job, as the scheduler writes them.
    let append = |journal: &Journal, (key, text): &(JobKey, String)| {
        journal.admit(*key, text, Priority::Normal);
        journal.settle(*key, "completed");
    };
    let path = dir.join("nosync.journal");
    let nosync = Journal::open(&path, 0)?;
    let mut next = 0;
    let mut appended = 0u64;
    let ns = ns_per_op(64, || {
        append(&nosync, &keys[next % keys.len()]);
        next += 1;
        appended += 2;
    });
    nosync.sync()?;
    m.set("serve.journal.append_nosync_us", ns / 2.0 / 1e3);

    let t0 = Instant::now();
    let recovery = ra_serve::journal::replay(&path)?;
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(recovery);
    m.set(
        "serve.journal.replay_ms_per_krec",
        replay_ms * 1e3 / appended as f64,
    );

    let synced = Journal::open(&dir.join("fsync.journal"), 1)?;
    let mut next = 0;
    let ns = median_ns(32, || {
        append(&synced, &keys[next % keys.len()]);
        next += 1;
    });
    synced.sync()?;
    m.set("serve.journal.append_fsync_us", ns / 2.0 / 1e3);
    Ok(())
}

fn admission(m: &mut Metrics) {
    let mut controller = AdmissionController::new(AdmissionConfig::default());
    let capacity = ServeConfig::default().queue_capacity;
    let mut tick = 0usize;
    let ns = ns_per_op(256, || {
        controller.observe_queue_delay(Duration::from_micros((tick % 997) as u64));
        black_box(controller.update(tick % (capacity + 1), capacity));
        tick += 1;
    });
    m.set("serve.admission.update_ns", ns);
}

fn ring(keys: &[(JobKey, String)], m: &mut Metrics) {
    let ring = HashRing::new(2, DEFAULT_VNODES);
    let mut next = 0;
    let ns = ns_per_op(256, || {
        black_box(ring.route(keys[next % keys.len()].0));
        next += 1;
    });
    m.set("serve.ring.route_ns", ns);
}

fn tiny(seed: u64) -> JobSpec {
    parse_spec(&format!("{TINY} seed={seed}"))
}

fn one_worker() -> std::io::Result<JobService> {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    JobService::start(config, ObsSink::disabled())
}

/// Submits and waits, in process; returns the host time and the outcome.
fn submit_and_wait(service: &JobService, spec: JobSpec) -> Result<(Duration, JobOutcome), String> {
    let t0 = Instant::now();
    let receipt = service
        .submit(spec, Priority::Normal, None)
        .map_err(|e| e.to_string())?;
    let outcome = service
        .wait(receipt.ticket, None)
        .map_err(|e| e.to_string())?;
    Ok((t0.elapsed(), outcome))
}

fn scheduler(m: &mut Metrics, counts: &mut ServiceCounts) -> Result<(), String> {
    let service = one_worker().map_err(|e| e.to_string())?;
    submit_and_wait(&service, tiny(1))?;
    let mut memo_us = Vec::new();
    for _ in 0..BINARY_ROUND_TRIPS {
        let (took, outcome) = submit_and_wait(&service, tiny(1))?;
        if !matches!(outcome, JobOutcome::Completed { cached: true, .. }) {
            return Err(format!("memoized job answered `{}`", outcome.label()));
        }
        memo_us.push(took.as_secs_f64() * 1e6);
    }
    m.set(
        "serve.scheduler.memo_us",
        median(&memo_us).expect("samples taken"),
    );

    // A fresh tiny job, minus the simulation the driver itself timed.
    let mut overhead_us = Vec::new();
    for seed in 2..2 + FRESH_JOBS {
        let (took, outcome) = submit_and_wait(&service, tiny(seed))?;
        let JobOutcome::Completed {
            result,
            cached: false,
            ..
        } = outcome
        else {
            return Err(format!("fresh job answered `{}`", outcome.label()));
        };
        overhead_us.push((took.as_secs_f64() - result.wall.as_secs_f64()) * 1e6);
    }
    m.set(
        "serve.scheduler.fresh_overhead_us",
        median(&overhead_us).expect("samples taken"),
    );
    counts.add_service(&service.stats());
    service.shutdown();
    Ok(())
}

/// Round-trip times of one verb on one connection, in microseconds.
fn round_trips(
    client: &mut WireClient,
    request: &Request,
    count: usize,
) -> std::io::Result<Vec<f64>> {
    (0..count)
        .map(|_| {
            let t0 = Instant::now();
            let response = client.call_request(request)?;
            let took = t0.elapsed();
            match response {
                Response::Submit(ok) if ok.disposition == "cached" => Ok(took.as_secs_f64() * 1e6),
                other => Err(std::io::Error::other(format!(
                    "memo hit answered {other:?}"
                ))),
            }
        })
        .collect()
}

fn wire_and_relay(m: &mut Metrics, counts: &mut ServiceCounts) -> std::io::Result<()> {
    let server = WireServer::bind("127.0.0.1:0", one_worker()?)?.spawn()?;
    let service = server.service();
    let request = Request::Submit(SubmitItem::new(tiny(1).canonical()));
    let mut json = WireClient::connect(server.addr())?;
    // Memoize: one fresh run, collected, before any round trip is timed.
    let Response::Submit(first) = json.call_request(&request)? else {
        return Err(std::io::Error::other("first submit refused"));
    };
    json.call_request(&Request::Result {
        ticket: first.ticket,
        timeout_ms: Some(60_000),
    })?;
    let response = json.call_request(&request)?;

    let json_us = round_trips(&mut json, &request, JSON_ROUND_TRIPS)?;
    let mut binary = WireClient::connect(server.addr())?.with_binary(true);
    let binary_us = round_trips(&mut binary, &request, BINARY_ROUND_TRIPS)?;
    let p =
        |samples: &[f64], q: f64| percentile(samples, q).expect("sample sized for this percentile");
    let (json_p50, binary_p50) = (p(&json_us, 50.0), p(&binary_us, 50.0));
    m.set("serve.wire.json_rtt_us_p50", json_p50);
    m.set("serve.wire.json_rtt_us_p90", p(&json_us, 90.0));
    m.set("serve.wire.bin_rtt_us_p50", binary_p50);
    m.set("serve.wire.bin_rtt_us_p99", p(&binary_us, 99.0));

    // What is left of a round trip once the scheduler's answer and both
    // ends' encoding and decoding are taken out: the socket, the server's
    // connection loop, and any stall between them.
    let dispatch_us = median_ns(BINARY_ROUND_TRIPS, || {
        black_box(ra_serve::wire::dispatch(&service, black_box(&request)));
    }) / 1e3;
    let exchange = [(request.clone(), response)];
    let codec_us = |codec: &dyn Codec| {
        let (encode_ns, decode_ns) = codec_ns(codec, &exchange, &encode(codec, &exchange));
        (encode_ns + decode_ns) / 1e3
    };
    m.set(
        "serve.wire.json_residual_us",
        json_p50 - dispatch_us - codec_us(&JsonCodec),
    );
    m.set(
        "serve.wire.bin_residual_us",
        binary_p50 - dispatch_us - codec_us(&BinaryCodec),
    );

    // The same verb through a relay in front of that one backend. Its
    // edge cache is off: it would answer a memo hit without forwarding.
    let config = RelayConfig {
        backends: vec![server.addr().to_string()],
        edge_cache: 0,
        ..RelayConfig::default()
    };
    let relay =
        RelayServer::bind("127.0.0.1:0", Relay::new(config, ObsSink::disabled())?)?.spawn()?;
    let mut relayed = WireClient::connect(relay.addr())?.with_binary(true);
    let relayed_us = round_trips(&mut relayed, &request, BINARY_ROUND_TRIPS)?;
    m.set(
        "serve.cluster.relay_hop_us",
        p(&relayed_us, 50.0) - binary_p50,
    );

    counts.add_relay(&relay.relay().stats());
    counts.add_service(&service.stats());
    drop((json, binary, relayed, service));
    relay.stop();
    server.stop();
    Ok(())
}

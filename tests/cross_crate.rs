//! Integration tests spanning crates: the contracts the co-simulation
//! methodology relies on.

use reciprocal_abstraction::cosim::{
    percent_error, LatencyProbe, ModeSpec, ReciprocalNetwork, RunSpec, Target,
};
use reciprocal_abstraction::fullsys::{FullSysConfig, FullSystem};
use reciprocal_abstraction::gpu::ParallelEngine;
use reciprocal_abstraction::netmodel::{HopLatency, HopMetric};
use reciprocal_abstraction::noc::{NocConfig, NocNetwork, TopologyKind};
use reciprocal_abstraction::obs::{JsonlRecorder, ObsSink, Recorder};
use reciprocal_abstraction::sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
use reciprocal_abstraction::workloads::{AppProfile, AppWorkload};

/// The abstract models' hop metric must agree with the cycle-level
/// topology's hop counts everywhere, for every topology kind — otherwise
/// calibration tables would be keyed inconsistently.
#[test]
fn hop_metric_matches_detailed_topology() {
    let cases = [
        (NocConfig::new(5, 3), HopMetric::Mesh(NocConfig::new(5, 3).shape)),
        (
            NocConfig::new(6, 4).with_topology(TopologyKind::Torus),
            HopMetric::Torus(NocConfig::new(6, 4).shape),
        ),
        (
            NocConfig::new(8, 2).with_topology(TopologyKind::CMesh { concentration: 2 }),
            HopMetric::CMesh {
                shape: NocConfig::new(8, 2).shape,
                concentration: 2,
            },
        ),
    ];
    for (cfg, metric) in cases {
        let net = NocNetwork::new(cfg.clone()).unwrap();
        let topo = net.topology();
        for src in cfg.shape.iter() {
            for dst in cfg.shape.iter() {
                assert_eq!(
                    metric.hops(src, dst),
                    topo.hops(src, dst),
                    "{cfg:?} {src}->{dst}"
                );
            }
        }
        assert_eq!(metric.diameter(), topo.diameter(), "{cfg:?} diameter");
    }
}

/// The hop-latency model's default parameters must match the cycle-level
/// NoC's zero-load latency exactly — that is what makes it the fair
/// "abstract baseline" whose only error is ignoring contention.
#[test]
fn hop_model_matches_noc_zero_load() {
    let cfg = NocConfig::new(6, 6);
    let metric = HopMetric::Mesh(cfg.shape);
    let model = HopLatency::default();
    for (src, dst, bytes) in [(0u32, 1u32, 8u32), (0, 35, 8), (7, 14, 72), (3, 3, 8)] {
        let mut net = NocNetwork::new(cfg.clone()).unwrap();
        let msg = NetMessage::new(0, NodeId(src), NodeId(dst), MessageClass::Request, bytes);
        net.inject(msg, Cycle(0));
        net.run_until_drained(10_000).unwrap();
        let measured = net.drain_delivered(Cycle(net.next_cycle()))[0].at.0;
        let ctx = reciprocal_abstraction::netmodel::LoadContext {
            utilization: 0.0,
            hops: metric.hops(NodeId(src), NodeId(dst)),
            flits: msg.flits(cfg.flit_bytes),
        };
        use reciprocal_abstraction::netmodel::LatencyModel;
        assert_eq!(
            model.latency(&msg, &ctx),
            measured,
            "zero-load mismatch {src}->{dst} ({bytes}B)"
        );
    }
}

/// Full co-simulation stack on the parallel engine must agree exactly with
/// the serial engine (the GPU-offload substitution changes wall-clock
/// only, never results).
#[test]
fn cosim_results_identical_serial_vs_parallel_engine() {
    fn run(workers: usize) -> (u64, u64, u64) {
        let target = Target::cmp(4, 4);
        let net = LatencyProbe::new(
            ReciprocalNetwork::new(target.noc.clone(), 500, workers).unwrap(),
        );
        let workload = AppWorkload::new(AppProfile::radix(), 16, 5);
        let mut sys = FullSystem::new(target.fullsys.clone(), net, workload).unwrap();
        let cycles = sys.run_until_instructions(400, 5_000_000).unwrap();
        let stats = sys.stats();
        let coupler = sys.network().inner().stats().clone();
        (cycles, stats.total_messages(), coupler.measured)
    }
    assert_eq!(run(0), run(2));
}

/// The accuracy ordering the paper's figures rest on: the reciprocal
/// model's latency error against lockstep truth must beat the static
/// abstract model's under a loaded workload.
#[test]
fn accuracy_ladder_holds_on_small_target() {
    let target = Target::cmp(4, 4);
    let app = AppProfile::canneal();
    let run = |mode: ModeSpec| {
        RunSpec::new(&target, &app)
            .mode(mode)
            .instructions(500)
            .budget(5_000_000)
            .seed(11)
            .run()
    };
    let truth = run(ModeSpec::Lockstep).unwrap();
    let hop = run(ModeSpec::Hop).unwrap();
    let recip = run(ModeSpec::Reciprocal { quantum: 400, workers: 0, pipeline: false }).unwrap();
    let hop_err = percent_error(hop.avg_latency(), truth.avg_latency());
    let recip_err = percent_error(recip.avg_latency(), truth.avg_latency());
    assert!(
        recip_err < hop_err,
        "reciprocal {recip_err:.2}% must beat abstract {hop_err:.2}%"
    );
}

/// Same workload, same network abstraction, same seed -> identical results
/// across every layer of the stack (end-to-end determinism).
#[test]
fn end_to_end_determinism() {
    fn run() -> (u64, u64, f64) {
        let target = Target::cmp(4, 4);
        let app = AppProfile::fft();
        let r = RunSpec::new(&target, &app)
            .mode(ModeSpec::Reciprocal { quantum: 300, workers: 0, pipeline: false })
            .instructions(300)
            .budget(5_000_000)
            .seed(99)
            .run()
            .unwrap();
        (r.cycles, r.messages, r.avg_latency())
    }
    assert_eq!(run(), run());
}

/// A full system driving the cycle-level NoC directly (lockstep) conserves
/// messages: everything injected is eventually delivered.
#[test]
fn lockstep_conserves_messages() {
    let cfg = FullSysConfig::new(4, 4);
    let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    let workload = AppWorkload::new(AppProfile::barnes(), 16, 2);
    let mut sys = FullSystem::new(cfg, net, workload).unwrap();
    sys.run_until_instructions(400, 5_000_000).unwrap();
    // The workload keeps issuing ops, so the network never empties — but
    // accounting must balance at any instant.
    let noc = sys.into_network();
    assert_eq!(
        noc.stats().injected - noc.stats().delivered,
        noc.in_flight() as u64,
        "message accounting out of balance"
    );
    assert!(noc.stats().delivered > 1_000, "run produced real traffic");
}

/// The parallel engine across the whole matrix of worker counts and mesh
/// shapes stays bit-identical to serial under protocol traffic.
#[test]
fn engine_equivalence_under_protocol_traffic() {
    fn run(workers: usize) -> (u64, f64) {
        let cfg = FullSysConfig::new(4, 4);
        let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let workload = AppWorkload::new(AppProfile::ocean(), 16, 77);
        let mut sys = FullSystem::new(cfg, net, workload).unwrap();
        if workers == 0 {
            sys.run_until_instructions(300, 5_000_000).unwrap();
            let noc = sys.into_network();
            return (noc.stats().delivered, noc.stats().latency.mean());
        }
        // Drive the same system stepping the NoC through the engine: the
        // fullsys's Network::tick goes through NocNetwork::step either way,
        // so instead run lockstep and compare NoC stats via ReciprocalNetwork
        // with quantum 1 (pure pass-through of the detailed model).
        let target = Target::cmp(4, 4);
        let coupler = ReciprocalNetwork::new(target.noc, 1, workers).unwrap();
        let workload = AppWorkload::new(AppProfile::ocean(), 16, 77);
        let mut sys = FullSystem::new(FullSysConfig::new(4, 4), coupler, workload).unwrap();
        sys.run_until_instructions(300, 5_000_000).unwrap();
        let coupler = sys.into_network();
        (
            coupler.detailed().stats().delivered,
            coupler.detailed().stats().latency.mean(),
        )
    }
    // Serial reciprocal (quantum 1) must equal parallel reciprocal.
    let target = Target::cmp(4, 4);
    let serial = {
        let coupler = ReciprocalNetwork::new(target.noc.clone(), 1, 0).unwrap();
        let workload = AppWorkload::new(AppProfile::ocean(), 16, 77);
        let mut sys = FullSystem::new(FullSysConfig::new(4, 4), coupler, workload).unwrap();
        sys.run_until_instructions(300, 5_000_000).unwrap();
        let coupler = sys.into_network();
        (
            coupler.detailed().stats().delivered,
            coupler.detailed().stats().latency.mean(),
        )
    };
    assert_eq!(serial, run(2));
    let _ = run(0); // plain lockstep also completes
}

/// A reciprocal run with a `JsonlRecorder` attached streams the coupler's
/// `quantum_report` events and the profiling `span` events to the trace
/// file, one JSON object per line.
#[test]
fn jsonl_trace_carries_quantum_reports_and_spans() {
    let path = std::env::temp_dir().join(format!("ra-trace-{}.jsonl", std::process::id()));
    let (sink, recorder) = ObsSink::attach(JsonlRecorder::create(&path).unwrap());
    let target = Target::cmp(4, 4);
    RunSpec::new(&target, &AppProfile::radix())
        .mode(ModeSpec::Reciprocal { quantum: 400, workers: 0, pipeline: false })
        .instructions(400)
        .budget(5_000_000)
        .seed(9)
        .recorder(sink)
        .run()
        .unwrap();
    recorder.lock().unwrap().flush().unwrap();
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(trace.lines().all(|line| line.starts_with('{') && line.ends_with('}')));
    for kind in ["quantum_report", "span"] {
        let tag = format!("\"event\":\"{kind}\"");
        assert!(trace.lines().any(|line| line.contains(&tag)), "no {kind} event in the trace");
    }
}

/// Quantum-1 reciprocal co-simulation degenerates to per-cycle coupling;
/// its calibrated latency must land very close to the lockstep truth.
#[test]
fn tiny_quantum_approaches_lockstep_truth() {
    let target = Target::cmp(4, 4);
    let app = AppProfile::ocean();
    let run = |mode: ModeSpec| {
        RunSpec::new(&target, &app)
            .mode(mode)
            .instructions(300)
            .budget(5_000_000)
            .seed(8)
            .run()
    };
    let truth = run(ModeSpec::Lockstep).unwrap();
    let tight = run(ModeSpec::Reciprocal { quantum: 50, workers: 0, pipeline: false }).unwrap();
    let err = percent_error(tight.avg_latency(), truth.avg_latency());
    assert!(err < 25.0, "quantum-50 error {err:.1}% unexpectedly large");
}

/// Parallel engines shared across sequential couplers do not interfere.
#[test]
fn multiple_engines_coexist() {
    let mut a = ParallelEngine::new(2);
    let mut b = ParallelEngine::new(2);
    let mut net_a = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    let mut net_b = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    net_a.inject(
        NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
        Cycle(0),
    );
    net_b.inject(
        NetMessage::new(0, NodeId(15), NodeId(0), MessageClass::Response, 72),
        Cycle(0),
    );
    a.run_cycles(&mut net_a, 100).unwrap();
    b.run_cycles(&mut net_b, 100).unwrap();
    assert_eq!(net_a.stats().delivered, 1);
    assert_eq!(net_b.stats().delivered, 1);
}

/// The service layer end to end through the umbrella crate: wire client
/// -> TCP server -> scheduler -> driver -> cached resubmission, with the
/// backpressure and cache counters visible over the `stats` verb.
#[test]
fn serve_wire_round_trip_reaches_the_driver_and_memoizes() {
    use reciprocal_abstraction::serve::{
        JobService, Json, ServeConfig, WireClient, WireServer,
    };

    let service = JobService::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        reciprocal_abstraction::obs::ObsSink::disabled(),
    )
    .expect("service starts");
    let handle = WireServer::bind("127.0.0.1:0", service)
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = WireClient::connect(handle.addr()).expect("connect");

    let spec = "target=4x4 app=water mode=hop instructions=100 budget=500000 seed=3";
    let submitted = client.submit(spec, Some("high"), None).expect("submit");
    assert_eq!(submitted.get("ok").and_then(Json::as_bool), Some(true));
    let ticket = submitted.get("ticket").and_then(Json::as_u64).expect("ticket");

    let outcome = client.result(ticket, Some(60_000)).expect("result");
    assert_eq!(outcome.get("outcome").and_then(Json::as_str), Some("completed"));
    let body = outcome.get("result").expect("result body");
    assert_eq!(body.get("workload").and_then(Json::as_str), Some("water"));
    assert_eq!(body.get("mode").and_then(Json::as_str), Some("abstract-hop"));
    let cycles = body.get("cycles").and_then(Json::as_u64).expect("cycles");
    assert!(cycles > 0);

    // Identical spec, different phrasing: canonicalization makes it the
    // same job, and the store serves it without re-simulating.
    let rephrased = "seed=3 app=water target=4x4 budget=500000 instructions=100 mode=hop";
    let again = client.submit(rephrased, None, None).expect("resubmit");
    assert_eq!(
        again.get("disposition").and_then(Json::as_str),
        Some("cached")
    );
    let ticket = again.get("ticket").and_then(Json::as_u64).expect("ticket");
    let cached = client.result(ticket, Some(60_000)).expect("cached result");
    assert_eq!(cached.get("outcome").and_then(Json::as_str), Some("cached"));
    assert_eq!(
        cached
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64),
        Some(cycles),
        "the cached result must be the original, bit for bit"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(0));
    handle.stop();
}

/// Every request and response the wire understands must survive a
/// round-trip through both codecs unchanged — the typed enums are the
/// contract, the codecs are interchangeable transports. The binary
/// frames additionally unwrap through the shared frame reader, the
/// same path the server and client use.
#[test]
fn wire_protocol_round_trips_every_message_through_both_codecs() {
    use reciprocal_abstraction::serve::proto::{
        ErrorCode, OutcomeOk, Request, Response, ResultBody, SubmitItem, SubmitOk, WireError,
    };
    use reciprocal_abstraction::serve::{frame, BinaryCodec, Codec, FrameStep, JsonCodec};

    let requests = vec![
        Request::Submit(SubmitItem::new("target=2x2 app=water mode=hop")),
        Request::Submit(
            SubmitItem::new("target=4x4 app=fft mode=lockstep")
                .priority("high")
                .deadline_ms(1_500),
        ),
        Request::SubmitBatch(vec![
            SubmitItem::new("target=2x2 app=water mode=hop"),
            SubmitItem::new("target=2x2 app=ocean mode=hop").priority("low"),
        ]),
        Request::Status { ticket: 7 },
        Request::StatusBatch { tickets: vec![1, 2, 9_007_199_254_740_991] },
        Request::Result { ticket: 9, timeout_ms: None },
        Request::Result { ticket: 9, timeout_ms: Some(30_000) },
        Request::ResultBatch { tickets: vec![3, 4], timeout_ms: Some(250) },
        Request::ResultBatch { tickets: vec![], timeout_ms: None },
        Request::Cancel { ticket: 12 },
        Request::Stats,
        Request::Health,
        Request::NodeStats,
    ];
    let responses = vec![
        Response::Submit(SubmitOk {
            ticket: 41,
            job: "00c0ffee00c0ffee".to_owned(),
            disposition: "enqueued".to_owned(),
            depth: 3,
            node: None,
            edge: false,
        }),
        Response::Submit(SubmitOk {
            ticket: 42,
            job: "00c0ffee00c0ffee".to_owned(),
            disposition: "cached".to_owned(),
            depth: 0,
            node: Some(1),
            edge: true,
        }),
        Response::Status { state: "running".to_owned() },
        Response::Outcome(OutcomeOk {
            outcome: "completed".to_owned(),
            detail: None,
            queue_ns: Some(120),
            run_ns: Some(4_567),
            body: Some(ResultBody {
                workload: "water".to_owned(),
                mode: "reciprocal".to_owned(),
                cycles: 123_456,
                messages: 789,
                ipc: 1.25,
                latency_mean: 17.5,
                latency_count: 789,
                calibrations: 4,
                fidelity: Some("reciprocal".to_owned()),
                error_bound: Some(0.05),
            }),
        }),
        Response::Outcome(OutcomeOk {
            outcome: "failed".to_owned(),
            detail: Some("driver refused the spec".to_owned()),
            queue_ns: Some(1),
            run_ns: Some(2),
            body: None,
        }),
        Response::Cancel { cancel: "cancelled".to_owned() },
        Response::Report { json: r#"{"ok":true,"role":"backend","state":"up","queue_depth":0}"#.to_owned() },
        Response::Batch(vec![
            Response::Status { state: "done".to_owned() },
            Response::Error(WireError::new(ErrorCode::UnknownTicket, "status_batch")),
        ]),
        Response::Error(
            WireError::new(ErrorCode::QueueFull, "submit")
                .with_detail("queue is at capacity")
                .with_depth(64),
        ),
        Response::Error(WireError::new(ErrorCode::BadFrame, "")),
    ];

    // Binary frames come back through the shared frame reader first.
    let unframe = |bytes: &[u8]| -> Vec<u8> {
        match frame::step(bytes) {
            FrameStep::Ok { payload, advance } => {
                assert_eq!(advance, bytes.len(), "one message, one frame");
                payload
            }
            other => panic!("binary codec produced a bad frame: {other:?}"),
        }
    };
    // JSON payloads are newline-delimited lines.
    let unline = |bytes: &[u8]| -> Vec<u8> {
        assert_eq!(bytes.last(), Some(&b'\n'), "JSON messages are lines");
        bytes[..bytes.len() - 1].to_vec()
    };

    for request in &requests {
        let wire = JsonCodec.encode_request(request);
        let back = JsonCodec
            .decode_request(&unline(&wire))
            .unwrap_or_else(|err| panic!("json decode of {request:?}: {err:?}"));
        assert_eq!(&back, request, "json round-trip");

        let wire = BinaryCodec.encode_request(request);
        let back = BinaryCodec
            .decode_request(&unframe(&wire))
            .unwrap_or_else(|err| panic!("binary decode of {request:?}: {err:?}"));
        assert_eq!(&back, request, "binary round-trip");
    }
    for response in &responses {
        let wire = JsonCodec.encode_response(response);
        let back = JsonCodec
            .decode_response(&unline(&wire))
            .unwrap_or_else(|err| panic!("json decode of {response:?}: {err}"));
        assert_eq!(&back, response, "json round-trip");

        let wire = BinaryCodec.encode_response(response);
        let back = BinaryCodec
            .decode_response(&unframe(&wire))
            .unwrap_or_else(|err| panic!("binary decode of {response:?}: {err}"));
        assert_eq!(&back, response, "binary round-trip");
    }
}

/// The chiplet hop metric must agree with the chiplet network's own hop
/// counts for every node pair — the same keying contract the single-die
/// metrics uphold, extended across the interposer. The cross-die split the
/// coupler bands calibration on must match too.
#[test]
fn chiplet_hop_metric_matches_chiplet_network() {
    use reciprocal_abstraction::cosim::InterposerClass;
    use reciprocal_abstraction::noc::ChipletNetwork;

    let cases = [
        Target::chiplet(2, 4, 4, InterposerClass::Silicon),
        Target::chiplet(3, 3, 2, InterposerClass::Organic),
    ];
    for target in cases {
        let spec = target.noc.chiplet.clone().expect("chiplet target");
        let net = ChipletNetwork::new(target.noc.clone()).unwrap();
        let metric = HopMetric::Chiplet {
            islands: spec.islands,
            island: target.noc.shape,
        };
        assert_eq!(metric.nodes(), net.nodes() as usize, "{}", target.name);
        for src in 0..net.nodes() {
            for dst in 0..net.nodes() {
                assert_eq!(
                    metric.hops(NodeId(src), NodeId(dst)),
                    net.hops(NodeId(src), NodeId(dst)),
                    "{} {src}->{dst}",
                    target.name
                );
            }
        }
        assert_eq!(metric.diameter(), net.diameter(), "{} diameter", target.name);
        assert_eq!(
            metric.cross_split(),
            net.cross_split(),
            "{} cross-die split",
            target.name
        );
    }
}

/// The chiplet/DNN/trace job vocabulary must survive the full spec
/// round-trip — text -> `JobSpec` -> canonical text -> `JobSpec` — and the
/// canonical form must pass unchanged through both wire codecs.
#[test]
fn chiplet_and_streaming_specs_round_trip_the_spec_layer_and_both_codecs() {
    use reciprocal_abstraction::serve::proto::{Request, SubmitItem};
    use reciprocal_abstraction::serve::{
        frame, BinaryCodec, Codec, FrameStep, JobSpec, JsonCodec,
    };

    let texts = [
        "target=chiplet:2x4x4,interposer=silicon app=dnn \
         mode=reciprocal:quantum=300 instructions=150 budget=500000 seed=3",
        "target=chiplet:4x4x2,interposer=organic app=dnn:layers=3,tensor=4096 \
         mode=hop instructions=100 budget=500000",
        "target=chiplet:2x4x4,interposer=active app=water mode=lockstep \
         instructions=100 budget=500000",
        "target=4x4 app=trace:smoke mode=hop instructions=100 budget=500000",
    ];
    for text in texts {
        let spec: JobSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
        let canonical = spec.to_string();
        let reparsed: JobSpec = canonical
            .parse()
            .unwrap_or_else(|e| panic!("canonical {canonical}: {e}"));
        assert_eq!(spec, reparsed, "canonicalization must be a fixed point");

        let request = Request::Submit(SubmitItem::new(canonical.clone()));
        let wire = JsonCodec.encode_request(&request);
        assert_eq!(wire.last(), Some(&b'\n'), "JSON messages are lines");
        let json_back = JsonCodec
            .decode_request(&wire[..wire.len() - 1])
            .expect("json decode");
        assert_eq!(json_back, request, "json round-trip of {canonical}");

        let wire = BinaryCodec.encode_request(&request);
        let payload = match frame::step(&wire) {
            FrameStep::Ok { payload, advance } => {
                assert_eq!(advance, wire.len());
                payload
            }
            other => panic!("bad frame for {canonical}: {other:?}"),
        };
        let binary_back = BinaryCodec.decode_request(&payload).expect("binary decode");
        assert_eq!(binary_back, request, "binary round-trip of {canonical}");
    }
}

/// A chiplet job end to end through the service: the wire accepts the
/// chiplet vocabulary, the scheduler hands it to the driver, and the DNN
/// pipeline's cross-interposer run completes with real traffic. A spec
/// naming a nonexistent trace must instead be refused at submission with
/// the full error chain — offset and kind included — not accepted and
/// failed later.
#[test]
fn chiplet_jobs_flow_through_the_wire_and_bad_traces_are_refused_at_the_door() {
    use reciprocal_abstraction::serve::{JobService, Json, ServeConfig, WireClient, WireServer};

    let service = JobService::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reciprocal_abstraction::obs::ObsSink::disabled(),
    )
    .expect("service starts");
    let handle = WireServer::bind("127.0.0.1:0", service)
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = WireClient::connect(handle.addr()).expect("connect");

    let spec = "target=chiplet:2x4x4,interposer=silicon app=dnn \
                mode=reciprocal:quantum=300 instructions=100 budget=1000000 seed=5";
    let submitted = client.submit(spec, None, None).expect("submit chiplet job");
    let ticket = submitted.get("ticket").and_then(Json::as_u64).expect("ticket");
    let outcome = client.result(ticket, Some(120_000)).expect("result");
    assert_eq!(outcome.get("outcome").and_then(Json::as_str), Some("completed"));
    let body = outcome.get("result").expect("result body");
    assert_eq!(body.get("workload").and_then(Json::as_str), Some("dnn"));
    assert!(body.get("messages").and_then(Json::as_u64).expect("messages") > 0);

    let refused = client
        .submit(
            "target=4x4 app=trace:no-such-recording mode=hop instructions=100 budget=500000",
            None,
            None,
        )
        .expect("the wire answers even a refused submission");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("bad_spec"),
        "wrong error code: {refused:?}"
    );
    let detail = refused
        .get("detail")
        .and_then(Json::as_str)
        .expect("refusal carries a detail");
    assert!(
        detail.contains("unusable trace"),
        "refusal must name the trace problem: {detail}"
    );
    assert!(
        detail.contains("trace invalid at byte"),
        "refusal must chain the typed trace error: {detail}"
    );
    handle.stop();
}

/// The batched verbs end to end through the umbrella crate: one
/// round-trip submits a mixed batch, one collects every result.
#[test]
fn serve_batched_verbs_round_trip_through_the_umbrella_crate() {
    use reciprocal_abstraction::serve::{
        JobService, Response, ServeConfig, SubmitItem, WireClient, WireServer,
    };

    let service = JobService::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        reciprocal_abstraction::obs::ObsSink::disabled(),
    )
    .expect("service starts");
    let handle = WireServer::bind("127.0.0.1:0", service)
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop");
    let mut client = WireClient::connect(handle.addr())
        .expect("connect")
        .with_binary(true);

    let items: Vec<SubmitItem> = (0..4)
        .map(|seed| {
            SubmitItem::new(format!(
                "target=2x2 app=water mode=hop instructions=50 budget=200000 seed={seed}"
            ))
        })
        .collect();
    let submitted = client.submit_batch(items).expect("submit_batch");
    let tickets: Vec<u64> = submitted
        .iter()
        .map(|response| match response {
            Response::Submit(ok) => ok.ticket,
            other => panic!("batch item refused: {other:?}"),
        })
        .collect();
    let outcomes = client
        .result_batch(tickets, Some(60_000))
        .expect("result_batch");
    assert_eq!(outcomes.len(), 4);
    for outcome in &outcomes {
        match outcome {
            Response::Outcome(ok) => {
                assert_eq!(ok.outcome, "completed");
                assert!(ok.body.as_ref().expect("result body").cycles > 0);
            }
            other => panic!("no outcome: {other:?}"),
        }
    }
    handle.stop();
}

//! Robustness: randomized full-system workloads against the cycle-level
//! NoC (the most failure-prone coupling) must always complete coherently.

use proptest::prelude::*;
use reciprocal_abstraction::cosim::{
    FallbackPolicy, ModeSpec, ReciprocalNetwork, RunSpec, Target,
};
use reciprocal_abstraction::fullsys::{FullSysConfig, FullSystem, Op, ScriptedWorkload};
use reciprocal_abstraction::noc::{FaultPlan, NocConfig, NocNetwork};
use reciprocal_abstraction::sim::{Cycle, Network, Pcg32, SimError};
use reciprocal_abstraction::workloads::AppProfile;

/// Builds a random per-core op script biased towards nasty sharing.
fn random_scripts(seed: u64, cores: usize, ops: usize) -> Vec<Vec<Op>> {
    let mut rng = Pcg32::new(seed, 1);
    (0..cores)
        .map(|core| {
            (0..ops)
                .map(|_| match rng.below(10) {
                    0..=2 => Op::Compute(1 + rng.below(20)),
                    3..=6 => {
                        // Shared hot region: forces invalidations/forwards.
                        let line = u64::from(rng.below(24));
                        if rng.chance(0.5) {
                            Op::Load(line * 64)
                        } else {
                            Op::Store(line * 64)
                        }
                    }
                    _ => {
                        let line = 1_000 + core as u64 * 64 + u64::from(rng.below(64));
                        if rng.chance(0.7) {
                            Op::Load(line * 64)
                        } else {
                            Op::Store(line * 64)
                        }
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random contended workloads over the cycle-level NoC: the protocol
    /// must neither deadlock nor lose messages, and every core must retire
    /// its script.
    #[test]
    fn random_workloads_complete_over_the_noc(seed in 0u64..10_000) {
        let cfg = FullSysConfig::new(4, 4);
        let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let scripts = random_scripts(seed, 16, 40);
        let min_instr: u64 = scripts
            .iter()
            .map(|s| s.iter().map(|op| match op {
                Op::Compute(n) => u64::from(*n),
                _ => 1,
            }).sum::<u64>())
            .min()
            .unwrap();
        let w = ScriptedWorkload::new(scripts);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        let cycles = sys.run_until_instructions(min_instr, 2_000_000).unwrap();
        prop_assert!(cycles > 0);
        let noc = sys.into_network();
        prop_assert_eq!(
            noc.stats().injected - noc.stats().delivered,
            noc.in_flight() as u64,
            "message accounting out of balance"
        );
    }

    /// The same random workload gives identical cycle counts on repeat
    /// runs: determinism holds under arbitrary protocol interleavings.
    #[test]
    fn random_workloads_are_deterministic(seed in 0u64..3_000) {
        fn run(seed: u64) -> (u64, u64) {
            let cfg = FullSysConfig::new(4, 4);
            let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
            let w = ScriptedWorkload::new(random_scripts(seed, 16, 25));
            let mut sys = FullSystem::new(cfg, net, w).unwrap();
            sys.run_cycles(3_000);
            let s = sys.stats();
            (s.tiles.instructions, s.total_messages())
        }
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Random scripted workloads over a reciprocal coupler whose detailed
    /// NoC is running a random fault plan: the run must never panic, every
    /// core must retire its script (the fast path is authoritative), and
    /// the coupler's message accounting must balance.
    #[test]
    fn random_faults_never_panic_and_scripts_retire(
        seed in 0u64..5_000,
        fault_seed in 0u64..5_000,
        events in 1usize..6,
    ) {
        let plan = FaultPlan::random(fault_seed, 16, events, 3_000);
        let noc_cfg = NocConfig::new(4, 4).with_faults(plan);
        let coupler = ReciprocalNetwork::new(noc_cfg, 300, 0).unwrap();
        let scripts = random_scripts(seed, 16, 30);
        let min_instr: u64 = scripts
            .iter()
            .map(|s| s.iter().map(|op| match op {
                Op::Compute(n) => u64::from(*n),
                _ => 1,
            }).sum::<u64>())
            .min()
            .unwrap();
        let w = ScriptedWorkload::new(scripts);
        let mut sys = FullSystem::new(FullSysConfig::new(4, 4), coupler, w).unwrap();
        // Whatever the fault plan does to the detailed model, the fast
        // path keeps the full system live: the run must complete.
        let cycles = sys.run_until_instructions(min_instr, 2_000_000).unwrap();
        prop_assert!(cycles > 0);
        let coupler = sys.into_network();
        let stats = coupler.stats();
        if stats.watchdog_trips > 0 {
            prop_assert!(stats.quanta_degraded > 0,
                "a tripped run must report degraded quanta: {stats:?}");
            prop_assert!(stats.last_trip().is_some());
        }
        // The detailed NoC (whatever state it is in) still balances.
        let noc = coupler.detailed();
        prop_assert_eq!(
            noc.stats().injected - noc.stats().delivered,
            noc.in_flight() as u64,
            "detailed message accounting out of balance"
        );
    }

    /// Fault-free runs through the degradation-capable coupler never
    /// degrade: supervision must be free when nothing goes wrong.
    #[test]
    fn fault_free_coupler_runs_stay_healthy(seed in 0u64..2_000) {
        let coupler = ReciprocalNetwork::new(NocConfig::new(4, 4), 300, 0).unwrap();
        let w = ScriptedWorkload::new(random_scripts(seed, 16, 25));
        let mut sys = FullSystem::new(FullSysConfig::new(4, 4), coupler, w).unwrap();
        sys.run_cycles(5_000);
        let stats = sys.network().stats();
        prop_assert_eq!(stats.watchdog_trips, 0);
        prop_assert_eq!(stats.quanta_degraded, 0);
        prop_assert_eq!(stats.messages_rerouted, 0);
    }
}

mod durability {
    //! Torn-write robustness for the serve durability layer: whatever a
    //! crash leaves on disk — truncated tails, flipped bits, arbitrary
    //! garbage — recovery must never panic, must trust only an exact
    //! prefix of what was written, and must account for every byte.

    use proptest::prelude::*;
    use reciprocal_abstraction::serve::journal::{frame, read_frames, replay, Journal};
    use reciprocal_abstraction::serve::{JobKey, Priority};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh scratch path per proptest case (the stub runs cases
    /// sequentially, but a collision-free name keeps reruns clean too).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ra-robustness-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    /// Newline-free JSON-ish payloads, like the real logs write.
    fn payloads(seeds: &[u64]) -> Vec<String> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{{\"rec\":\"t\",\"i\":{i},\"seed\":{s}}}"))
            .collect()
    }

    fn framed(payloads: &[String]) -> Vec<u8> {
        payloads.iter().flat_map(|p| frame(p).into_bytes()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Truncating a framed log at ANY byte offset recovers an exact
        /// prefix of the records, reports zero checksum errors (the
        /// benign kill -9 signature), and accounts for every byte.
        #[test]
        fn truncation_recovers_an_exact_prefix(
            seeds in prop::collection::vec(0u64..1_000_000, 1..16),
            cut in any::<usize>(),
        ) {
            let originals = payloads(&seeds);
            let bytes = framed(&originals);
            let cut = cut % (bytes.len() + 1);
            let (recovered, report) = read_frames(&bytes[..cut]);
            prop_assert_eq!(report.checksum_errors, 0,
                "truncation must look benign, not corrupt");
            prop_assert!(recovered.len() <= originals.len());
            prop_assert_eq!(&originals[..recovered.len()], &recovered[..]);
            let consumed: usize = recovered.iter().map(|p| frame(p).len()).sum();
            prop_assert_eq!(consumed + report.dropped_tail_bytes as usize, cut,
                "every byte is either trusted or reported dropped");
        }

        /// Flipping one bit anywhere in the log invalidates exactly the
        /// frame it lands in: every frame before it is recovered intact,
        /// nothing at or after it is trusted.
        #[test]
        fn a_bit_flip_stops_recovery_at_the_damaged_frame(
            seeds in prop::collection::vec(0u64..1_000_000, 1..16),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let originals = payloads(&seeds);
            let mut bytes = framed(&originals);
            let flip_at = flip_at % bytes.len();
            bytes[flip_at] ^= 1 << flip_bit;
            // Which frame did the flip land in?
            let mut offset = 0usize;
            let mut damaged = originals.len();
            for (i, p) in originals.iter().enumerate() {
                let next = offset + frame(p).len();
                if flip_at < next {
                    damaged = i;
                    break;
                }
                offset = next;
            }
            let (recovered, report) = read_frames(&bytes);
            prop_assert_eq!(recovered.len(), damaged,
                "recovery must stop exactly at the damaged frame");
            prop_assert_eq!(&originals[..damaged], &recovered[..]);
            prop_assert!(report.checksum_errors <= 1);
            prop_assert!(report.dropped_tail_bytes > 0);
        }

        /// Arbitrary garbage never panics the reader, and the byte
        /// accounting still balances.
        #[test]
        fn arbitrary_garbage_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let (recovered, report) = read_frames(&bytes);
            let consumed: usize = recovered.iter().map(|p| frame(p).len()).sum();
            prop_assert_eq!(consumed + report.dropped_tail_bytes as usize, bytes.len());
        }

        /// End-to-end journal property: admit N jobs, settle a subset,
        /// then tear the file at an arbitrary offset. Replay must never
        /// error, must report only admitted-and-unsettled jobs (modulo
        /// records lost to the tear), and must preserve admission order.
        #[test]
        fn a_torn_journal_replays_a_consistent_unfinished_set(
            jobs in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..12),
            cut in any::<usize>(),
        ) {
            // Disambiguate colliding draws: the slot index makes keys unique.
            let jobs: Vec<(u64, bool)> = jobs
                .iter()
                .enumerate()
                .map(|(i, (k, settled))| ((k << 4) | i as u64, *settled))
                .collect();
            let path = scratch("journal");
            {
                let journal = Journal::open(&path, 0).unwrap();
                for (key, settled) in &jobs {
                    journal.admit(JobKey(*key), &format!("spec-{key}"), Priority::Normal);
                    if *settled {
                        journal.settle(JobKey(*key), "completed");
                    }
                }
                journal.sync().unwrap();
            }
            let full = std::fs::read(&path).unwrap();
            let cut = cut % (full.len() + 1);
            std::fs::write(&path, &full[..cut]).unwrap();
            let recovery = replay(&path).unwrap();
            prop_assert_eq!(recovery.report.checksum_errors, 0);
            // Every unfinished job replay reports was genuinely admitted,
            // and the fully-settled set never resurfaces from an untorn log.
            let admitted: Vec<u64> = jobs.iter().map(|(k, _)| *k).collect();
            for u in &recovery.unfinished {
                prop_assert!(admitted.contains(&u.key.0));
            }
            if cut == full.len() {
                let expect: Vec<u64> = jobs
                    .iter()
                    .filter(|(_, settled)| !settled)
                    .map(|(k, _)| *k)
                    .collect();
                let got: Vec<u64> =
                    recovery.unfinished.iter().map(|u| u.key.0).collect();
                prop_assert_eq!(got, expect, "untorn replay is exact and ordered");
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Acceptance: a full-system run whose detailed NoC has a permanently
/// isolated router completes without panic, reports a degraded run, and
/// stays within 2x of the fault-free abstract baseline's latency.
#[test]
fn permanent_fault_degrades_gracefully_within_latency_bound() {
    let app = AppProfile::water();
    let healthy = Target::cmp(4, 4);
    let baseline = RunSpec::new(&healthy, &app)
        .mode(ModeSpec::Hop)
        .instructions(300)
        .budget(1_000_000)
        .seed(1)
        .run()
        .unwrap();

    let mut faulty = Target::cmp(4, 4);
    faulty.noc = faulty.noc.with_faults(FaultPlan::new().isolate_router(5, 0));
    let result = RunSpec::new(&faulty, &app)
        .mode(ModeSpec::Reciprocal { quantum: 200, workers: 0, pipeline: false })
        .instructions(300)
        .budget(1_000_000)
        .seed(1)
        .run()
        .unwrap();
    let coupler = result.coupler.clone().expect("reciprocal run reports coupler stats");

    assert!(result.cycles > 0);
    assert!(
        coupler.watchdog_trips > 0,
        "isolating a router must trip the watchdog: {coupler:?}"
    );
    assert!(coupler.quanta_degraded > 0, "{coupler:?}");
    assert!(coupler.messages_rerouted > 0, "{coupler:?}");
    let ratio = result.avg_latency() / baseline.avg_latency().max(1e-9);
    assert!(
        ratio < 2.0,
        "degraded latency {:.2} must stay within 2x of abstract baseline {:.2}",
        result.avg_latency(),
        baseline.avg_latency()
    );
}

/// Acceptance: a scripted router stall long enough to trip the watchdog
/// still lets the run complete via fallback, and the detailed model is
/// readmitted once the stall clears.
#[test]
fn stalled_router_run_completes_via_fallback() {
    let mut target = Target::cmp(4, 4);
    target.noc = target
        .noc
        .with_faults(FaultPlan::new().stall_router(5, 0, 1_500));
    let app = app_heavy();
    let result = RunSpec::new(&target, &app)
        .mode(ModeSpec::Reciprocal { quantum: 200, workers: 0, pipeline: false })
        .instructions(300)
        .budget(2_000_000)
        .seed(2)
        .run()
        .unwrap();
    let coupler = result.coupler.clone().expect("reciprocal run reports coupler stats");
    assert!(result.cycles > 0);
    assert!(
        coupler.watchdog_trips > 0 || coupler.calibrations > 0,
        "run must either trip on the stall or calibrate around it: {coupler:?}"
    );
    assert!(
        !coupler.detailed_abandoned,
        "a transient stall must not permanently abandon the detailed model: {coupler:?}"
    );
}

fn app_heavy() -> AppProfile {
    AppProfile::ocean()
}

/// Acceptance: a deliberately corrupted router surfaces as
/// `SimError::Invariant` from the network — never a process abort.
#[test]
fn forced_invariant_violation_is_an_error_not_an_abort() {
    use reciprocal_abstraction::sim::{MessageClass, NetMessage, NodeId};
    let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    for i in 0..10 {
        net.inject(
            NetMessage::new(i, NodeId(0), NodeId(15), MessageClass::Request, 8),
            Cycle(0),
        );
    }
    net.debug_router_mut(0).debug_corrupt_credits();
    let run = net.run_until_drained(10_000);
    let audit = net.audit();
    let err = run.err().or(audit.err()).expect("corruption must surface");
    assert!(
        matches!(err, SimError::Invariant(_)),
        "must be an invariant error, got {err:?}"
    );
}

/// A router whose occupancy masks drift from its VC state is caught by the
/// audit at once, and running on surfaces it as an error, never a panic.
#[test]
fn corrupted_occupancy_mask_is_caught_by_the_audit() {
    use reciprocal_abstraction::sim::{MessageClass, NetMessage, NodeId};
    let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    for i in 0..10 {
        net.inject(
            NetMessage::new(i, NodeId(0), NodeId(15), MessageClass::Response, 72),
            Cycle(0),
        );
    }
    net.tick(Cycle(5));
    net.audit().unwrap();
    net.debug_router_mut(1).debug_corrupt_masks();
    match net.audit() {
        Err(SimError::Invariant(msg)) => assert!(msg.contains("masks"), "{msg}"),
        other => panic!("the audit must catch a corrupted mask: {other:?}"),
    }
    let run = net.run_until_drained(10_000);
    let audit = net.audit();
    let err = run.err().or(audit.err()).expect("corruption must surface");
    assert!(matches!(err, SimError::Invariant(_)), "got {err:?}");
}

/// An arrival mark that no live router took is caught by the audit at once,
/// and running on surfaces it as an error, never a panic: the router the
/// mark later wakes finds no flit stamped for it and poisons itself.
#[test]
fn stray_arrival_mark_is_caught_by_the_audit() {
    use reciprocal_abstraction::sim::{MessageClass, NetMessage, NodeId};
    let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    for i in 0..10 {
        net.inject(
            NetMessage::new(i, NodeId(0), NodeId(15), MessageClass::Response, 72),
            Cycle(0),
        );
    }
    net.tick(Cycle(5));
    net.audit().unwrap();
    // Router 12 (column 0, row 3) is off the XY path from 0 to 15; input
    // port 3 is its south link, fed by router 8, which carries nothing.
    net.debug_stray_arrival(12, 3);
    match net.audit() {
        Err(SimError::Invariant(msg)) => assert!(msg.contains("arrival"), "{msg}"),
        other => panic!("the audit must catch a stray arrival mark: {other:?}"),
    }
    match net.run_until_drained(10_000) {
        Err(SimError::Invariant(msg)) => assert!(msg.contains("marked flit wire"), "{msg}"),
        other => panic!("the marked router must poison itself: {other:?}"),
    }
}

/// A tile put to sleep while it still has work is caught by the full
/// system's gating audit at once. Running on shows why: nothing else
/// notices, and the tile silently stops retiring.
#[test]
fn oversleeping_tile_is_caught_by_the_audit() {
    let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
    // Every core computes for 50 cycles, so every tile has an event pending.
    let w = ScriptedWorkload::new(vec![vec![Op::Compute(50)]; 16]);
    let mut sys = FullSystem::new(FullSysConfig::new(4, 4), net, w).unwrap();
    for _ in 0..10 {
        sys.step();
        sys.audit().unwrap();
    }
    sys.debug_oversleep(3);
    match sys.audit() {
        Err(SimError::Invariant(msg)) => assert!(msg.contains("tile 3: sleeps"), "{msg}"),
        other => panic!("the audit must catch an oversleeping tile: {other:?}"),
    }
    sys.run_cycles(100);
    let retired = sys.instructions_per_core();
    assert_eq!(retired[3], 0);
    assert!(retired[2] >= 50);
}

/// Acceptance: a watchdog trip mid-run leaves the coupler usable — the
/// degraded coupler keeps serving the full system and retires everything.
#[test]
fn degraded_coupler_retires_every_script() {
    let noc_cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().isolate_router(9, 100));
    let coupler = ReciprocalNetwork::new(noc_cfg, 250, 0)
        .unwrap()
        .with_fallback_policy(FallbackPolicy {
            max_retries: 1,
            backoff_quanta: 1,
            permanent_after: 2,
        });
    let scripts = random_scripts(77, 16, 40);
    let total_ops: usize = scripts.iter().map(Vec::len).sum();
    assert!(total_ops > 0);
    let min_instr: u64 = scripts
        .iter()
        .map(|s| {
            s.iter()
                .map(|op| match op {
                    Op::Compute(n) => u64::from(*n),
                    _ => 1,
                })
                .sum::<u64>()
        })
        .min()
        .unwrap();
    let w = ScriptedWorkload::new(scripts);
    let mut sys = FullSystem::new(FullSysConfig::new(4, 4), coupler, w).unwrap();
    let cycles = sys.run_until_instructions(min_instr, 2_000_000).unwrap();
    assert!(cycles > 0);
    let stats = sys.network().stats();
    assert!(
        stats.watchdog_trips > 0 && stats.detailed_abandoned,
        "strict policy over a black-holing fault must abandon: {stats:?}"
    );
    assert!(stats.quanta_degraded > 0);
}

mod wire_protocol {
    //! Fuzz for the binary wire codec: arbitrary or damaged bytes must
    //! never panic the frame reader or the codec, and a damaged frame
    //! must stop the stream exactly at the damage point — the same
    //! trust-only-a-valid-prefix discipline the journal reader has.

    use proptest::prelude::*;
    use reciprocal_abstraction::serve::proto::{Request, SubmitItem};
    use reciprocal_abstraction::serve::{frame, BinaryCodec, Codec, FrameStep};

    fn sample_request(seed: u64) -> Request {
        match seed % 5 {
            0 => Request::Submit(
                SubmitItem::new(format!("target=2x2 app=water seed={seed}")).priority("high"),
            ),
            1 => Request::Status { ticket: seed },
            2 => Request::Result {
                ticket: seed,
                timeout_ms: Some(seed % 10_000),
            },
            3 => Request::StatusBatch {
                tickets: vec![seed % 1_000, seed % 7],
            },
            _ => Request::Health,
        }
    }

    /// Walks a buffer with `frame::step` the way the server's read loop
    /// does: decode frames until damage or exhaustion.
    fn drain(buffer: &[u8]) -> Vec<Vec<u8>> {
        let mut at = 0usize;
        let mut frames = Vec::new();
        while at < buffer.len() {
            match frame::step(&buffer[at..]) {
                FrameStep::Ok { payload, advance } => {
                    frames.push(payload);
                    at += advance;
                }
                _ => break,
            }
        }
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary bytes never panic the frame reader or the binary
        /// codec's request/response decoders.
        #[test]
        fn garbage_never_panics_the_binary_wire(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let _ = frame::step(&bytes);
            let _ = BinaryCodec.decode_request(&bytes);
            let _ = BinaryCodec.decode_response(&bytes);
        }

        /// Truncating an encoded request mid-frame can never yield a
        /// decodable message: the reader reports Incomplete (wait for
        /// more bytes) or Malformed, never a trusted frame.
        #[test]
        fn truncated_frames_never_decode(
            seed in any::<u64>(),
            cut in any::<usize>(),
        ) {
            let wire = BinaryCodec.encode_request(&sample_request(seed));
            let cut = cut % wire.len(); // strictly shorter than the frame
            prop_assert!(
                !matches!(frame::step(&wire[..cut]), FrameStep::Ok { .. }),
                "a truncated frame must never decode"
            );
        }

        /// Flipping one bit anywhere in a multi-frame stream stops the
        /// read loop exactly at the damaged frame: every frame before it
        /// decodes intact, nothing at or after it is trusted.
        #[test]
        fn a_flipped_bit_stops_the_stream_at_the_damaged_frame(
            seeds in prop::collection::vec(any::<u64>(), 1..8),
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
        ) {
            let frames: Vec<Vec<u8>> = seeds
                .iter()
                .map(|&s| BinaryCodec.encode_request(&sample_request(s)))
                .collect();
            let mut wire: Vec<u8> = frames.concat();
            let flip_at = flip_at % wire.len();
            wire[flip_at] ^= 1 << flip_bit;
            // Which frame did the flip land in?
            let mut offset = 0usize;
            let mut damaged = frames.len();
            for (i, f) in frames.iter().enumerate() {
                if flip_at < offset + f.len() {
                    damaged = i;
                    break;
                }
                offset += f.len();
            }
            let decoded = drain(&wire);
            prop_assert_eq!(decoded.len(), damaged,
                "the stream must stop exactly at the damaged frame");
            for (payload, &seed) in decoded.iter().zip(&seeds) {
                let request = BinaryCodec.decode_request(payload).expect("intact frame");
                prop_assert_eq!(request, sample_request(seed));
            }
        }
    }
}

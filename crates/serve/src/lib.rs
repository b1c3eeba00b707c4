//! `ra-serve`: a concurrent simulation-job service over the reciprocal
//! co-simulation driver.
//!
//! Experiment sweeps and interactive tooling hit the same small set of
//! simulations over and over — the mode ladder on the standard targets,
//! a handful of seeds. Running each request with a fresh [`RunSpec`] is
//! both serial and wasteful. This crate packages the driver as a
//! *service*:
//!
//! * [`JobSpec`] — an owned, canonical job description with a stable
//!   content hash ([`JobKey`]) and text round-trip, convertible into the
//!   borrowed [`RunSpec`];
//! * [`ResultStore`] — sharded in-memory LRU memoization of completed
//!   [`RunResult`]s, plus a checksummed, replayable spill log;
//! * [`journal`] — the crash-safety layer: a shared checksummed frame
//!   format for both durability logs and a write-ahead job journal, so
//!   a restart (even after kill -9) rebuilds the memo cache and
//!   re-enqueues admitted-but-unfinished jobs exactly once;
//! * [`JobService`] — a fixed worker pool behind a *bounded* admission
//!   queue with explicit backpressure ([`Rejected::QueueFull`]),
//!   priorities, whole-life deadlines (queued jobs expire, running jobs
//!   are cooperatively cancelled by a reaper), single-flight coalescing
//!   of identical jobs, interest-counted cooperative cancellation
//!   (reusing the engine's watchdog poll via
//!   [`RunSpec::cancel_flag`](ra_cosim::RunSpec::cancel_flag)), a
//!   panic-catching worker supervisor with per-job strike quarantine,
//!   and bounded retry with exponential backoff for transient faults;
//! * [`wire`] — line-delimited JSON over `std::net` TCP (the `ra-serve`
//!   server bin and the `ra-loadgen` load generator bin), no async
//!   runtime required, with an idle-connection reaper so stalled peers
//!   cannot pin connection threads;
//! * [`cluster`] / [`ring`] / [`health`] — the multi-node tier: the
//!   `ra-relay` coordinator consistent-hashes [`JobKey`]s across N
//!   backend nodes, probes their health (Up/Suspect/Down), forwards the
//!   wire verbs with per-forward deadlines and jittered retries, and on
//!   node death re-routes the dead shard to survivors with exactly-once
//!   handoff (dedup by `JobKey` against the survivor's memo store);
//! * observability — service events (`job_admitted`, `job_rejected`,
//!   `cache_hit`, `job_done`) and per-job run spans flow through the
//!   existing [`ra_obs`] recorder taxonomy.
//!
//! Everything is deterministic where the simulator is: one job's result
//! depends only on its canonical spec, never on scheduling order — the
//! property the workspace-level determinism suite pins down.
//!
//! # Quick start
//!
//! ```
//! use ra_serve::{JobService, JobSpec, Priority, ServeConfig};
//!
//! let service = JobService::start(ServeConfig::default(), ra_obs::ObsSink::disabled())?;
//! let spec: JobSpec = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000"
//!     .parse()
//!     .expect("canonical spec");
//! let first = service.submit(spec.clone(), Priority::High, None).expect("admitted");
//! let outcome = service.wait(first.ticket, None).expect("finishes");
//! assert_eq!(outcome.label(), "completed");
//!
//! // Identical resubmission: served from the memo store, no simulation.
//! let again = service.submit(spec, Priority::Low, None).expect("admitted");
//! assert_eq!(again.disposition.label(), "cached");
//! service.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`RunSpec`]: ra_cosim::RunSpec
//! [`RunResult`]: ra_cosim::RunResult

pub mod admission;
pub mod breaker;
pub mod cluster;
pub mod codec;
pub mod frame;
pub mod health;
pub mod journal;
pub mod proto;
pub mod json;
pub mod ring;
mod sched_core;
pub mod scheduler;
pub mod spec;
pub mod store;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionController, BrownoutLevel, Ewma, TokenBucket};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cluster::{Relay, RelayConfig, RelayHandle, RelayStats};
pub use codec::{BinaryCodec, Codec, JsonCodec};
pub use frame::{FrameStep, RecoveryReport};
pub use health::{HealthMachine, HealthPolicy, NodeState};
pub use journal::{Journal, JournalRecovery, UnfinishedJob};
pub use proto::{ErrorCode, Request, Response, SubmitItem, WireError};
pub use json::{Json, JsonError};
pub use ring::HashRing;
pub use scheduler::{
    CancelOutcome, ChaosConfig, Disposition, JobOutcome, JobService, JobStatus, Priority,
    RecoveryInfo, Rejected, ServeConfig, ServiceStats, SubmitParams, SubmitReceipt, Ticket,
    WaitError,
};
pub use spec::{Fidelity, JobKey, JobSpec, SpecError};
pub use store::{ResultStore, StoreStats, StoredResult};
pub use wire::{ServerHandle, WireClient, WireServer};

#[cfg(test)]
mod service_tests {
    use super::*;
    use ra_obs::{Event, ObsSink, RingRecorder};
    use std::time::{Duration, Instant};

    const FAST: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";
    /// Long enough to still be running while the test submits more work,
    /// but bounded, and cancellable at the 512-cycle watchdog poll.
    const SLOW: &str = "target=2x2 app=water mode=fixed:10 instructions=60000 budget=30000000";
    /// Takes a release build about 7 s, some 50x the 150 ms deadline the
    /// cancellation test gives it, so the deadline always lands mid-run;
    /// no test runs it to completion.
    const VERY_SLOW: &str =
        "target=2x2 app=water mode=fixed:10 instructions=20000000 budget=100000000000";

    fn service_with_ring(
        config: ServeConfig,
    ) -> (JobService, std::sync::Arc<std::sync::Mutex<RingRecorder>>) {
        let (sink, ring) = ObsSink::attach(RingRecorder::new(4096));
        let service = JobService::start(config, sink).expect("service starts");
        (service, ring)
    }

    fn spin_until_running(service: &JobService, ticket: Ticket) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match service.status(ticket) {
                Some(JobStatus::Running) => return,
                Some(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("job never started running: {other:?}"),
            }
        }
    }

    #[test]
    fn resubmission_is_a_cache_hit_and_skips_the_simulator() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let spec: JobSpec = FAST.parse().unwrap();

        let first = service.submit(spec.clone(), Priority::Normal, None).unwrap();
        assert!(matches!(first.disposition, Disposition::Enqueued { .. }));
        let outcome = service.wait(first.ticket, None).unwrap();
        let JobOutcome::Completed { result, cached, .. } = outcome else {
            panic!("first run should complete");
        };
        assert!(!cached);

        let second = service.submit(spec, Priority::Normal, None).unwrap();
        assert_eq!(second.disposition, Disposition::CacheHit);
        let JobOutcome::Completed {
            result: cached_result,
            cached: true,
            ..
        } = service.wait(second.ticket, None).unwrap()
        else {
            panic!("resubmission should be served cached");
        };
        assert_eq!(cached_result.cycles, result.cycles);
        assert_eq!(cached_result.latency, result.latency);

        let stats = service.stats();
        assert_eq!(stats.completed, 1, "exactly one simulation ran");
        assert_eq!(stats.cache_hits, 1);
        service.shutdown();

        // The obs stream is the ground truth the tests and CI smoke use:
        // one job_done, one cache_hit, one admission.
        let ring = ring.lock().unwrap();
        let events: Vec<&Event> = ring.events().collect();
        let count = |kind: &str| events.iter().filter(|e| e.kind_name() == kind).count();
        assert_eq!(count("job_done"), 1);
        assert_eq!(count("cache_hit"), 1);
        assert_eq!(count("job_admitted"), 1);
        assert_eq!(count("job_rejected"), 0);
    }

    /// A pipelined reciprocal job must surface its speculation counters
    /// through every reporting layer: the run result, the cumulative
    /// [`ServiceStats`], and the `job_done` observability event.
    #[test]
    fn pipelined_job_reports_speculation_counters() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let spec: JobSpec =
            "target=4x4 app=water mode=reciprocal:quantum=300,pipeline=on instructions=200 \
             budget=500000 seed=1"
                .parse()
                .unwrap();
        let receipt = service.submit(spec, Priority::Normal, None).unwrap();
        let JobOutcome::Completed { result, .. } = service.wait(receipt.ticket, None).unwrap()
        else {
            panic!("pipelined job should complete");
        };
        let coupler = result.coupler.as_ref().expect("reciprocal run has coupler stats");
        let decisions = coupler.spec_commits + coupler.spec_rollbacks;
        assert!(decisions > 0, "the run never speculated: {coupler:?}");

        let stats = service.stats();
        assert_eq!(stats.spec_commits, coupler.spec_commits);
        assert_eq!(stats.spec_rollbacks, coupler.spec_rollbacks);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let done: Vec<&Event> = ring
            .events()
            .filter(|e| e.kind_name() == "job_done")
            .collect();
        assert_eq!(done.len(), 1);
        let Event::JobDone {
            spec_commits,
            spec_rollbacks,
            ..
        } = done[0]
        else {
            unreachable!("filtered on kind_name");
        };
        assert_eq!(*spec_commits, coupler.spec_commits);
        assert_eq!(*spec_rollbacks, coupler.spec_rollbacks);
    }

    #[test]
    fn concurrent_identical_jobs_coalesce_to_one_run() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let spec: JobSpec = SLOW.parse().unwrap();
        let first = service.submit(spec.clone(), Priority::Normal, None).unwrap();
        let mut tickets = vec![first.ticket];
        for _ in 0..5 {
            let receipt = service.submit(spec.clone(), Priority::Normal, None).unwrap();
            assert_eq!(receipt.disposition, Disposition::Coalesced);
            assert_eq!(receipt.job, first.job);
            tickets.push(receipt.ticket);
        }
        let mut cycle_counts = Vec::new();
        for ticket in tickets {
            let JobOutcome::Completed { result, .. } = service.wait(ticket, None).unwrap()
            else {
                panic!("coalesced job should complete for every ticket");
            };
            cycle_counts.push(result.cycles);
        }
        cycle_counts.dedup();
        assert_eq!(cycle_counts.len(), 1, "all tickets share one result");
        let stats = service.stats();
        assert_eq!(stats.completed, 1, "single-flight: one simulation for six submits");
        assert_eq!(stats.coalesced, 5);
        service.shutdown();
    }

    #[test]
    fn queue_overflow_rejects_with_explicit_backpressure() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        // Occupy the only worker, then the only queue slot. Distinct
        // seeds keep the jobs from coalescing.
        let blocker = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(1), Priority::Normal, None)
            .unwrap();
        spin_until_running(&service, blocker.ticket);
        let queued = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(2), Priority::Normal, None)
            .unwrap();
        assert!(matches!(queued.disposition, Disposition::Enqueued { depth: 1 }));

        let overflow = service.submit(SLOW.parse::<JobSpec>().unwrap().seed(3), Priority::Normal, None);
        assert_eq!(overflow.unwrap_err(), Rejected::QueueFull { depth: 1 });
        assert_eq!(service.stats().rejected, 1);

        // Unblock quickly: drop interest in both live jobs.
        assert_eq!(service.cancel(blocker.ticket), Some(CancelOutcome::Signalled));
        assert_eq!(service.cancel(queued.ticket), Some(CancelOutcome::Cancelled));
        service.shutdown();

        let ring = ring.lock().unwrap();
        let rejected = ring
            .events()
            .filter(|e| e.kind_name() == "job_rejected")
            .count();
        assert_eq!(rejected, 1, "every rejection must emit its signal");
    }

    #[test]
    fn cancelling_a_running_job_stops_it_via_the_watchdog_poll() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let receipt = service
            .submit(SLOW.parse().unwrap(), Priority::Normal, None)
            .unwrap();
        spin_until_running(&service, receipt.ticket);
        // wait() would consume the ticket; keep it for the cancel and
        // poll status instead.
        assert_eq!(service.cancel(receipt.ticket), Some(CancelOutcome::Signalled));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = service.stats();
            if stats.cancelled == 1 {
                break;
            }
            assert!(stats.completed == 0, "job should stop before completing");
            assert!(Instant::now() < deadline, "cancellation never landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        service.shutdown();
    }

    #[test]
    fn coalesced_interest_survives_a_single_cancel() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let spec: JobSpec = SLOW.parse::<JobSpec>().unwrap().seed(9);
        let keeper = service.submit(spec.clone(), Priority::Normal, None).unwrap();
        let quitter = service.submit(spec, Priority::Normal, None).unwrap();
        assert_eq!(quitter.disposition, Disposition::Coalesced);
        assert_eq!(service.cancel(quitter.ticket), Some(CancelOutcome::Detached));
        let outcome = service.wait(keeper.ticket, None).unwrap();
        assert!(
            matches!(outcome, JobOutcome::Completed { cached: false, .. }),
            "the job must still run for the remaining ticket: {outcome:?}"
        );
        service.shutdown();
    }

    #[test]
    fn priorities_order_the_queue_and_deadlines_expire_in_it() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // Worker busy -> everything below queues up behind it.
        let blocker = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(1), Priority::Normal, None)
            .unwrap();
        spin_until_running(&service, blocker.ticket);

        let low = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(10), Priority::Low, None)
            .unwrap();
        let doomed = service
            .submit(
                FAST.parse::<JobSpec>().unwrap().seed(11),
                Priority::High,
                Some(Duration::from_millis(0)),
            )
            .unwrap();
        let high = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(12), Priority::High, None)
            .unwrap();

        // Free the worker; the queue drains high-first.
        service.cancel(blocker.ticket);
        let JobOutcome::Completed {
            queue_ns: high_queue_ns,
            ..
        } = service.wait(high.ticket, None).unwrap()
        else {
            panic!("high-priority job should complete");
        };
        let JobOutcome::Completed {
            queue_ns: low_queue_ns,
            ..
        } = service.wait(low.ticket, None).unwrap()
        else {
            panic!("low-priority job should complete");
        };
        assert!(
            high_queue_ns < low_queue_ns,
            "high priority must leave the queue first ({high_queue_ns} vs {low_queue_ns})"
        );
        assert!(
            matches!(
                service.wait(doomed.ticket, None).unwrap(),
                JobOutcome::DeadlineExpired
            ),
            "a zero deadline must expire in the queue"
        );
        assert_eq!(service.stats().expired, 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_joins_cleanly() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|seed| {
                service
                    .submit(
                        FAST.parse::<JobSpec>().unwrap().seed(100 + seed),
                        Priority::Normal,
                        None,
                    )
                    .unwrap()
                    .ticket
            })
            .collect();
        // Wait for all, then shut down: drained queue, clean joins.
        for ticket in tickets {
            assert!(matches!(
                service.wait(ticket, Some(Duration::from_secs(60))),
                Ok(JobOutcome::Completed { .. })
            ));
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.queue_depth, 0);
        service.shutdown();
    }

    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ra-serve-state-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_panicking_job_is_quarantined_and_the_pool_survives() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 2,
            retry_backoff: Duration::from_millis(1),
            chaos: ChaosConfig {
                panic_on_seeds: vec![777],
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        });
        // The poison pill crashes a worker on every attempt; after the
        // second strike it must be quarantined, not retried forever.
        let bad = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(777), Priority::Normal, None)
            .unwrap();
        // A sibling job in flight at the same time must be unaffected.
        let good = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(778), Priority::Normal, None)
            .unwrap();
        let outcome = service.wait(bad.ticket, Some(Duration::from_secs(60))).unwrap();
        let JobOutcome::Poisoned { error } = outcome else {
            panic!("poison pill should be quarantined, got {outcome:?}");
        };
        assert!(error.contains("chaos: injected worker panic"), "error: {error}");
        assert!(matches!(
            service.wait(good.ticket, Some(Duration::from_secs(60))).unwrap(),
            JobOutcome::Completed { .. }
        ));
        // The pool is whole again: a fresh job still completes.
        let after = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(779), Priority::Normal, None)
            .unwrap();
        assert!(matches!(
            service.wait(after.ticket, Some(Duration::from_secs(60))).unwrap(),
            JobOutcome::Completed { .. }
        ));
        let stats = service.stats();
        assert_eq!(stats.poisoned, 1);
        assert_eq!(stats.respawns, 2, "one respawn per strike");
        assert_eq!(stats.completed, 2);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let count = |kind: &str| ring.events().filter(|e| e.kind_name() == kind).count();
        assert_eq!(count("worker_respawn"), 2);
        assert_eq!(count("job_quarantined"), 1);
    }

    #[test]
    fn transient_faults_retry_with_backoff_until_success() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 1,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            chaos: ChaosConfig {
                fault_on_seeds: vec![555],
                fault_attempts: 2,
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        });
        let receipt = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(555), Priority::Normal, None)
            .unwrap();
        assert!(matches!(
            service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap(),
            JobOutcome::Completed { cached: false, .. }
        ));
        let stats = service.stats();
        assert_eq!(stats.retries, 2, "two faulted attempts, then success");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        service.shutdown();
    }

    #[test]
    fn an_exhausted_retry_budget_fails_the_job() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 1,
            retry_budget: 1,
            retry_backoff: Duration::from_millis(1),
            chaos: ChaosConfig {
                fault_on_seeds: vec![556],
                fault_attempts: u32::MAX,
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        });
        let receipt = service
            .submit(FAST.parse::<JobSpec>().unwrap().seed(556), Priority::Normal, None)
            .unwrap();
        let outcome = service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap();
        let JobOutcome::Failed { error } = outcome else {
            panic!("budget exhaustion should fail the job, got {outcome:?}");
        };
        assert!(error.contains("injected transient fault"), "error: {error}");
        let stats = service.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 1);
        service.shutdown();
    }

    #[test]
    fn a_running_job_past_its_deadline_is_cooperatively_cancelled() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let receipt = service
            .submit(
                VERY_SLOW.parse::<JobSpec>().unwrap().seed(31),
                Priority::Normal,
                Some(Duration::from_millis(150)),
            )
            .unwrap();
        let outcome = service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap();
        assert!(
            matches!(outcome, JobOutcome::DeadlineExceeded),
            "a run past its deadline must finish as deadline_exceeded, got {outcome:?}"
        );
        assert_eq!(service.stats().deadline_exceeded, 1);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let fired = ring
            .events()
            .filter(|e| e.kind_name() == "deadline_cancel")
            .count();
        assert_eq!(fired, 1, "the reaper fires the cancel exactly once");
    }

    #[test]
    fn restart_replays_the_spill_and_reruns_unfinished_journal_entries() {
        let dir = temp_state_dir("restart");
        let spill = dir.join("spill.jsonl");
        let journal_path = dir.join("journal.jsonl");
        let durable = |chaos: ChaosConfig| ServeConfig {
            workers: 1,
            spill: Some(spill.clone()),
            journal: Some(journal_path.clone()),
            fsync_every: 0,
            chaos,
            ..ServeConfig::default()
        };
        let done_spec = FAST.parse::<JobSpec>().unwrap().seed(21);
        let lost_spec = FAST.parse::<JobSpec>().unwrap().seed(22);

        // Life A: complete one job, then die with another admitted but
        // unfinished (simulated by appending its admit record the way a
        // killed process would have left it).
        {
            let (service, _ring) = service_with_ring(durable(ChaosConfig::default()));
            let receipt = service.submit(done_spec.clone(), Priority::Normal, None).unwrap();
            assert!(matches!(
                service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap(),
                JobOutcome::Completed { .. }
            ));
            service.shutdown();
            let journal = Journal::open(&journal_path, 0).unwrap();
            journal.admit(lost_spec.job_hash(), &lost_spec.canonical(), Priority::High);
            journal.sync().unwrap();
        }

        // Life B: the completed result survives, the unfinished job is
        // re-enqueued and runs exactly once.
        let (service, ring) = service_with_ring(durable(ChaosConfig::default()));
        let recovery = service.recovery();
        assert_eq!(recovery.recovered_results, 1);
        assert_eq!(recovery.resumed_jobs, 1);
        assert_eq!(recovery.checksum_errors, 0);
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.stats().completed < 1 {
            assert!(Instant::now() < deadline, "resumed job never completed");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Both specs now answer from the memo store without simulating.
        for spec in [done_spec, lost_spec] {
            let receipt = service.submit(spec, Priority::Normal, None).unwrap();
            assert_eq!(receipt.disposition, Disposition::CacheHit, "spec should be memoized");
        }
        assert_eq!(service.stats().completed, 1, "the resumed job ran exactly once");
        service.shutdown();

        let ring = ring.lock().unwrap();
        let replayed = ring
            .events()
            .filter(|e| e.kind_name() == "journal_replay")
            .count();
        assert_eq!(replayed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_finishes_inflight_work_and_rejects_new_submissions() {
        let (service, _ring) = service_with_ring(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        for seed in 0..4 {
            service
                .submit(
                    FAST.parse::<JobSpec>().unwrap().seed(300 + seed),
                    Priority::Normal,
                    None,
                )
                .unwrap();
        }
        assert!(service.drain(Duration::from_secs(60)), "drain should finish");
        let stats = service.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(
            service
                .submit(FAST.parse::<JobSpec>().unwrap().seed(399), Priority::Normal, None)
                .unwrap_err(),
            Rejected::ShuttingDown
        );
        service.shutdown();
    }

    /// Reciprocal-mode spec for the degradation tests: only reciprocal
    /// mode has cheaper rungs (calibrated, hop) to degrade to.
    const RSPEC: &str = "target=2x2 app=water mode=reciprocal instructions=40 budget=100000";

    /// An `AdmissionConfig` whose brownout thresholds are unreachable,
    /// for tests that want overload behaviour without the ladder.
    fn no_brownout() -> AdmissionConfig {
        AdmissionConfig {
            brownout1_pressure: 10.0,
            brownout2_pressure: 20.0,
            ..AdmissionConfig::default()
        }
    }

    fn degraded_params() -> SubmitParams {
        SubmitParams {
            allow_degraded: true,
            ..SubmitParams::default()
        }
    }

    #[test]
    fn a_full_queue_degrades_consenting_jobs_and_upgrades_them_later() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            admission: no_brownout(),
            ..ServeConfig::default()
        });
        // One job running, one queued: the queue is at capacity.
        let blocker = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(910), Priority::Normal, None)
            .unwrap();
        spin_until_running(&service, blocker.ticket);
        let queued = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(911), Priority::Normal, None)
            .unwrap();

        // A consenting degradable job is not bounced at the full queue:
        // it is admitted at its floor instead.
        let degraded = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(912), degraded_params())
            .unwrap();
        assert!(
            matches!(degraded.disposition, Disposition::Enqueued { .. }),
            "consenting job must be admitted, got {:?}",
            degraded.disposition
        );
        // A non-consenting job at the same door is shed.
        assert!(matches!(
            service
                .submit(FAST.parse::<JobSpec>().unwrap().seed(913), Priority::Normal, None)
                .unwrap_err(),
            Rejected::QueueFull { .. }
        ));

        // Unblock the worker and collect the degraded answer.
        assert_eq!(service.cancel(queued.ticket), Some(CancelOutcome::Cancelled));
        assert_eq!(service.cancel(blocker.ticket), Some(CancelOutcome::Signalled));
        let outcome = service.wait(degraded.ticket, Some(Duration::from_secs(60))).unwrap();
        let JobOutcome::Completed { cached, fidelity, error_bound, .. } = outcome else {
            panic!("degraded job should complete, got {outcome:?}");
        };
        assert!(!cached);
        assert_eq!(fidelity, Fidelity::Hop);
        assert!(error_bound > 0.5, "hop answers carry a large error bound, got {error_bound}");
        assert_eq!(service.stats().degraded, 1);
        assert_eq!(service.stats().shed, 1);

        // The background upgrader re-runs the spec at full fidelity.
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.stats().upgraded < 1 {
            assert!(Instant::now() < deadline, "background upgrade never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
        // A strict (non-consenting) resubmit now hits the upgraded entry.
        let strict = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(912), SubmitParams::default())
            .unwrap();
        assert_eq!(strict.disposition, Disposition::CacheHit);
        let outcome = service.wait(strict.ticket, Some(Duration::from_secs(60))).unwrap();
        let JobOutcome::Completed { cached: true, fidelity, error_bound, .. } = outcome else {
            panic!("upgraded entry should serve strict callers, got {outcome:?}");
        };
        assert_eq!(fidelity, Fidelity::Reciprocal);
        assert_eq!(error_bound, 0.0);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let count = |kind: &str| ring.events().filter(|e| e.kind_name() == kind).count();
        assert_eq!(count("job_degraded"), 1);
        assert_eq!(count("result_upgraded"), 1);
        let upgraded = ring
            .events()
            .find_map(|e| match e {
                Event::ResultUpgraded { from, to, .. } => Some((from.clone(), to.clone())),
                _ => None,
            })
            .unwrap();
        assert_eq!(upgraded, ("hop".to_owned(), "reciprocal".to_owned()));
    }

    #[test]
    fn an_exhausted_client_quota_degrades_consenting_jobs_and_sheds_the_rest() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 2,
            quota_rate: 1e-6, // effectively never refills within the test
            quota_burst: 1.0,
            admission: no_brownout(),
            background_upgrades: false,
            ..ServeConfig::default()
        });
        let with_client = |client: Option<&str>, allow: bool| SubmitParams {
            client: client.map(str::to_owned),
            allow_degraded: allow,
            ..SubmitParams::default()
        };

        // The burst is one token: the first fresh run is free...
        let first = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(920), with_client(Some("tenant-a"), false))
            .unwrap();
        // ...the second, non-consenting, is shed...
        assert!(matches!(
            service
                .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(921), with_client(Some("tenant-a"), false))
                .unwrap_err(),
            Rejected::QueueFull { .. }
        ));
        // ...a consenting one is admitted at its floor instead...
        let cheap = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(922), with_client(Some("tenant-a"), true))
            .unwrap();
        // ...anonymous submissions and other tenants are untouched.
        let anon = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(923), with_client(None, false))
            .unwrap();
        let other = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(924), with_client(Some("tenant-b"), false))
            .unwrap();

        let fidelity_of = |ticket| {
            match service.wait(ticket, Some(Duration::from_secs(60))).unwrap() {
                JobOutcome::Completed { fidelity, .. } => fidelity,
                other => panic!("expected completion, got {other:?}"),
            }
        };
        assert_eq!(fidelity_of(first.ticket), Fidelity::Reciprocal);
        assert_eq!(fidelity_of(cheap.ticket), Fidelity::Hop);
        assert_eq!(fidelity_of(anon.ticket), Fidelity::Reciprocal);
        assert_eq!(fidelity_of(other.ticket), Fidelity::Reciprocal);
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.degraded, 1);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let shed_client = ring
            .events()
            .find_map(|e| match e {
                Event::JobShed { client, .. } => Some(client.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(shed_client, "tenant-a");
        let degrade_cause = ring
            .events()
            .find_map(|e| match e {
                Event::JobDegraded { cause, .. } => Some(cause.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(degrade_cause, "quota");
    }

    #[test]
    fn the_brownout_ladder_degrades_stepwise_and_never_bounces_consenting_jobs() {
        let (service, ring) = service_with_ring(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            admission: AdmissionConfig {
                // Pressure here is pure backlog fraction: the delay
                // target is far above anything a test run produces.
                delay_target: Duration::from_secs(3600),
                brownout1_pressure: 0.5,
                brownout2_pressure: 0.85,
                exit_pressure: 0.0,
                enter_after: 1,
                exit_after: 1000, // sticky: no exits mid-test
                ..AdmissionConfig::default()
            },
            background_upgrades: false,
            ..ServeConfig::default()
        });
        // A running blocker plus five queued fillers walk the backlog
        // fraction up to 0.625; the 0.5 observation enters Brownout-1.
        let blocker = service
            .submit(SLOW.parse::<JobSpec>().unwrap().seed(930), Priority::Normal, None)
            .unwrap();
        spin_until_running(&service, blocker.ticket);
        let fillers: Vec<_> = (931..=935)
            .map(|seed| {
                service
                    .submit(SLOW.parse::<JobSpec>().unwrap().seed(seed), Priority::Normal, None)
                    .unwrap()
            })
            .collect();
        assert_eq!(service.stats().brownout, 1, "0.5 backlog enters brownout-1");

        // Brownout-1 degrades only new low-priority work.
        let low = service
            .submit_with(
                RSPEC.parse::<JobSpec>().unwrap().seed(936),
                SubmitParams {
                    priority: Priority::Low,
                    allow_degraded: true,
                    ..SubmitParams::default()
                },
            )
            .unwrap();
        let normal = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(937), degraded_params())
            .unwrap();
        assert_eq!(service.stats().brownout, 1, "0.75 backlog stays below the b2 threshold");

        // The next observation reads 0.875 and escalates to Brownout-2:
        // now every consenting job degrades to its floor.
        let b2 = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(938), degraded_params())
            .unwrap();
        assert_eq!(service.stats().brownout, 2);

        // The queue is now at capacity (8): a consenting job is still
        // admitted (overflow region), a non-consenting one is shed.
        let overflow = service
            .submit_with(RSPEC.parse::<JobSpec>().unwrap().seed(939), degraded_params())
            .unwrap();
        assert!(matches!(overflow.disposition, Disposition::Enqueued { .. }));
        assert!(matches!(
            service
                .submit(FAST.parse::<JobSpec>().unwrap().seed(940), Priority::Normal, None)
                .unwrap_err(),
            Rejected::QueueFull { .. }
        ));

        // Unblock the pool and check each job ran at its planned rung.
        for filler in &fillers {
            assert_eq!(service.cancel(filler.ticket), Some(CancelOutcome::Cancelled));
        }
        assert_eq!(service.cancel(blocker.ticket), Some(CancelOutcome::Signalled));
        let fidelity_of = |ticket| {
            match service.wait(ticket, Some(Duration::from_secs(60))).unwrap() {
                JobOutcome::Completed { fidelity, error_bound, .. } => (fidelity, error_bound),
                other => panic!("expected completion, got {other:?}"),
            }
        };
        let (fid, err) = fidelity_of(low.ticket);
        assert_eq!(fid, Fidelity::Calibrated, "brownout-1 degrades low priority to calibrated");
        assert!(err > 0.0 && err < 0.5, "calibrated error bound is modest, got {err}");
        let (fid, _) = fidelity_of(normal.ticket);
        assert_eq!(fid, Fidelity::Reciprocal, "brownout-1 leaves normal priority alone");
        assert_eq!(fidelity_of(b2.ticket).0, Fidelity::Hop, "brownout-2 degrades to the floor");
        assert_eq!(fidelity_of(overflow.ticket).0, Fidelity::Hop);
        assert_eq!(service.stats().degraded, 3);
        service.shutdown();

        let ring = ring.lock().unwrap();
        let causes: Vec<String> = ring
            .events()
            .filter_map(|e| match e {
                Event::JobDegraded { cause, .. } => Some(cause.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(causes, ["brownout1", "brownout2", "queue_full"]);
        let enters = ring
            .events()
            .filter(|e| e.kind_name() == "brownout_enter")
            .count();
        assert_eq!(enters, 2);
    }

    #[test]
    fn runtime_compaction_under_chaos_does_not_resurrect_settled_jobs() {
        // Regression: jobs settled while size-triggered compactions
        // fire (here after every record) must not be re-enqueued by the
        // next life — the settle and the compaction snapshot race unless
        // both happen under the state lock.
        let dir = temp_state_dir("chaos-compact");
        let journal_path = dir.join("journal.jsonl");
        let compacting = |chaos: ChaosConfig| ServeConfig {
            workers: 1,
            journal: Some(journal_path.clone()),
            journal_compact_bytes: 1,
            fsync_every: 0,
            strike_limit: 1,
            chaos,
            ..ServeConfig::default()
        };

        // Life A: three poison pills and one healthy job, all settled.
        {
            let (service, _ring) = service_with_ring(compacting(ChaosConfig {
                panic_on_seeds: vec![801, 802, 803],
                ..ChaosConfig::default()
            }));
            for seed in [801u64, 802, 803, 810] {
                let receipt = service
                    .submit(FAST.parse::<JobSpec>().unwrap().seed(seed), Priority::Normal, None)
                    .unwrap();
                let outcome = service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap();
                if seed == 810 {
                    assert!(matches!(outcome, JobOutcome::Completed { .. }));
                } else {
                    assert!(matches!(outcome, JobOutcome::Poisoned { .. }));
                }
            }
            let stats = service.stats();
            assert!(stats.journal_compactions >= 1, "the tiny threshold must compact");
            assert_eq!(stats.poisoned, 3);
            service.shutdown();
        }

        // Life B: every job of life A was settled; nothing resumes.
        let (service, _ring) = service_with_ring(compacting(ChaosConfig::default()));
        let recovery = service.recovery();
        assert_eq!(
            recovery.resumed_jobs, 0,
            "settled jobs must not resurrect after compaction: {recovery:?}"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

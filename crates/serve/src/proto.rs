//! Typed wire protocol: every verb as a [`Request`], every reply as a
//! [`Response`].
//!
//! The enums give the stack one dispatch path ([`crate::wire::dispatch`])
//! and one place where shapes are defined. This module is only that
//! vocabulary: [`crate::codec`] holds the one schema both wire encodings
//! are driven from, so a reply decoded and re-encoded is the original line
//! exactly, and the relay re-encodes replies per client codec without
//! perturbing result fingerprints.

use ra_cosim::RunResult;

use crate::spec::Fidelity;

/// Most items a single `*_batch` request may carry. Bounds worst-case
/// memory per request; large workloads chunk client-side.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// One submission: the spec text plus its scheduling knobs. Shared by
/// `submit` and `submit_batch` so the two verbs cannot drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitItem {
    /// Job-spec text (`key=value` pairs; canonicalized server-side).
    pub spec: String,
    /// Scheduling priority label (`low`/`normal`/`high`); server default
    /// when absent.
    pub priority: Option<String>,
    /// Relative deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Client identity for per-client admission quotas, if any.
    pub client: Option<String>,
    /// Opt-in to brownout degradation: under overload the answer may
    /// come from a cheaper fidelity rung instead of `queue_full`.
    pub allow_degraded: bool,
    /// Lowest acceptable fidelity rung (`hop`/`calibrated`/`reciprocal`)
    /// when degradation is allowed; absent means any rung.
    pub min_fidelity: Option<String>,
}

impl SubmitItem {
    pub fn new(spec: impl Into<String>) -> SubmitItem {
        SubmitItem {
            spec: spec.into(),
            ..SubmitItem::default()
        }
    }

    #[must_use]
    pub fn priority(mut self, priority: impl Into<String>) -> SubmitItem {
        self.priority = Some(priority.into());
        self
    }

    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> SubmitItem {
        self.deadline_ms = Some(ms);
        self
    }

    #[must_use]
    pub fn client(mut self, client: impl Into<String>) -> SubmitItem {
        self.client = Some(client.into());
        self
    }

    #[must_use]
    pub fn allow_degraded(mut self, on: bool) -> SubmitItem {
        self.allow_degraded = on;
        self
    }

    #[must_use]
    pub fn min_fidelity(mut self, fidelity: impl Into<String>) -> SubmitItem {
        self.min_fidelity = Some(fidelity.into());
        self
    }
}

/// Every verb the serve/relay wire understands, fully parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Submit(SubmitItem),
    /// Up to [`MAX_BATCH_ITEMS`] submissions in one round-trip; answered
    /// by a [`Response::Batch`] with one entry per item, in order.
    SubmitBatch(Vec<SubmitItem>),
    Status {
        ticket: u64,
    },
    StatusBatch {
        tickets: Vec<u64>,
    },
    Result {
        ticket: u64,
        timeout_ms: Option<u64>,
    },
    /// `timeout_ms` is a *whole-batch* deadline: each successive wait
    /// gets whatever remains of it, so the reply arrives within one
    /// timeout no matter how many tickets are queried.
    ResultBatch {
        tickets: Vec<u64>,
        timeout_ms: Option<u64>,
    },
    Cancel {
        ticket: u64,
    },
    Stats,
    Health,
    NodeStats,
}

impl Request {
    /// The wire verb name (the JSON `"verb"` field).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::SubmitBatch(_) => "submit_batch",
            Request::Status { .. } => "status",
            Request::StatusBatch { .. } => "status_batch",
            Request::Result { .. } => "result",
            Request::ResultBatch { .. } => "result_batch",
            Request::Cancel { .. } => "cancel",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::NodeStats => "node_stats",
        }
    }
}

/// Stable machine-readable failure codes — the closed set behind both the
/// legacy `error` field and the new `code` field. Stringly construction
/// is gone: every error on the wire names one of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ErrorCode {
    BadRequest,
    BadSpec,
    QueueFull,
    ShuttingDown,
    UnknownTicket,
    Timeout,
    UnknownVerb,
    NoBackend,
    /// Also what a code from a newer peer reads as.
    #[default]
    Unavailable,
    /// A checksum-valid binary frame whose payload was not a decodable
    /// message.
    BadFrame,
}

impl ErrorCode {
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::BadRequest,
        ErrorCode::BadSpec,
        ErrorCode::QueueFull,
        ErrorCode::ShuttingDown,
        ErrorCode::UnknownTicket,
        ErrorCode::Timeout,
        ErrorCode::UnknownVerb,
        ErrorCode::NoBackend,
        ErrorCode::Unavailable,
        ErrorCode::BadFrame,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::UnknownTicket => "unknown_ticket",
            ErrorCode::Timeout => "timeout",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::NoBackend => "no_backend",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::BadFrame => "bad_frame",
        }
    }

    /// Maps a wire code string back to the enum. Codes from a newer peer
    /// fold to [`ErrorCode::Unavailable`] — still an error, still
    /// retryable-checked, never a panic.
    pub fn parse(code: &str) -> ErrorCode {
        ErrorCode::ALL
            .into_iter()
            .find(|c| c.as_str() == code)
            .unwrap_or_default()
    }

    /// Whether a client should retry the same request later. Derived
    /// from the code so the wire flag can never drift from the enum.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull
                | ErrorCode::Timeout
                | ErrorCode::NoBackend
                | ErrorCode::Unavailable
        )
    }
}

/// A wire error: stable code, the verb that failed, and optional context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: ErrorCode,
    /// The offending verb — the request's verb name, the unknown verb
    /// text for [`ErrorCode::UnknownVerb`], or `""` when no verb could be
    /// read at all (unparseable request).
    pub verb: String,
    /// Human-readable elaboration (error chains, offending values).
    pub detail: Option<String>,
    /// Queue depth at refusal time ([`ErrorCode::QueueFull`] only).
    pub depth: Option<u64>,
}

impl WireError {
    pub fn new(code: ErrorCode, verb: impl Into<String>) -> WireError {
        WireError {
            code,
            verb: verb.into(),
            detail: None,
            depth: None,
        }
    }

    pub fn with_detail(mut self, detail: impl Into<String>) -> WireError {
        self.detail = Some(detail.into());
        self
    }

    pub fn with_depth(mut self, depth: u64) -> WireError {
        self.depth = Some(depth);
        self
    }
}

/// A successful `submit` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOk {
    pub ticket: u64,
    /// Canonical job key, 16 lower-case hex digits.
    pub job: String,
    /// `enqueued`, `coalesced`, or `cached`.
    pub disposition: String,
    /// Queue depth after admission (0 for cache hits).
    pub depth: u64,
    /// Backend slot that owns the job — relay responses only.
    pub node: Option<u64>,
    /// True when a relay answered from its edge cache.
    pub edge: bool,
}

/// The per-run measurement body inside a completed result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBody {
    pub workload: String,
    pub mode: String,
    pub cycles: u64,
    pub messages: u64,
    pub ipc: f64,
    pub latency_mean: f64,
    pub latency_count: u64,
    pub calibrations: u64,
    /// Fidelity rung this answer was produced at (`reciprocal`,
    /// `calibrated`, or `hop`). Absent on pre-overload-control wires.
    pub fidelity: Option<String>,
    /// Estimated relative error bound for the rung; absent when the
    /// peer predates fidelity tagging.
    pub error_bound: Option<f64>,
}

/// A terminal (or in-flight, for `status`-style waits) `result` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeOk {
    /// `completed`, `cached`, `failed`, `cancelled`, `deadline_expired`,
    /// `deadline_exceeded`, or `poisoned`.
    pub outcome: String,
    pub detail: Option<String>,
    pub queue_ns: Option<u64>,
    pub run_ns: Option<u64>,
    /// Present only for `completed`/`cached` outcomes.
    pub body: Option<ResultBody>,
}

/// Every reply the serve/relay wire produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Submit(SubmitOk),
    Status {
        state: String,
    },
    Outcome(OutcomeOk),
    Cancel {
        cancel: String,
    },
    /// A pre-rendered JSON report line (`stats`, `health`, `node_stats`)
    /// carried verbatim — already contains `"ok":true`. The binary codec
    /// wraps the string; these verbs are off the hot path, so their
    /// payload stays the debuggable JSON either way.
    Report {
        json: String,
    },
    /// One reply per batch-request item, in request order.
    Batch(Vec<Response>),
    Error(WireError),
}

impl ResultBody {
    /// The wire view of one run, tagged with the fidelity rung that
    /// produced it and that rung's error bound.
    pub fn from_run(result: &RunResult, fidelity: Fidelity, error_bound: f64) -> ResultBody {
        ResultBody {
            workload: result.workload.clone(),
            mode: result.mode.clone(),
            cycles: result.cycles,
            messages: result.messages,
            ipc: result.ipc,
            latency_mean: result.latency.mean(),
            latency_count: result.latency.count(),
            calibrations: result.calibrations,
            fidelity: Some(fidelity.name().to_owned()),
            error_bound: Some(error_bound),
        }
    }
}

//! Typed wire protocol: every verb as a [`Request`], every reply as a
//! [`Response`].
//!
//! Before this module the wire layer pattern-matched raw JSON objects in
//! place — each verb hand-parsed its own fields and hand-rendered its own
//! reply, and the relay shuttled opaque strings. Lifting both directions
//! into enums gives the stack one dispatch path ([`crate::wire::dispatch`])
//! and one place where shapes are defined, which is what makes a second
//! codec ([`crate::codec::BinaryCodec`]) possible at all: the binary wire
//! encodes these enums, not ad-hoc JSON.
//!
//! The JSON renderings here are **byte-compatible** with the pre-v2 wire:
//! field names, field order, and number formatting are unchanged, so a
//! response that round-trips through `decode -> encode` reproduces the
//! original line exactly. That identity is what lets the relay re-encode
//! responses per client codec without perturbing result fingerprints.
//! Error responses grow two fields the old wire lacked — a stable
//! machine-readable `code` (mirroring `error`, which stays first for old
//! clients) and the offending `verb` — see [`WireError`].

use ra_cosim::RunResult;
use ra_obs::{json_object, JsonField};

use crate::json::Json;
use crate::spec::Fidelity;

/// Most items a single `*_batch` request may carry. Bounds worst-case
/// memory per request; large workloads chunk client-side.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// One submission: the spec text plus its scheduling knobs. Shared by
/// `submit` and `submit_batch` so the two verbs cannot drift.
#[derive(Debug, Clone, PartialEq, Eq)]
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
            priority: None,
            deadline_ms: None,
            client: None,
            allow_degraded: false,
            min_fidelity: None,
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
    Status { ticket: u64 },
    StatusBatch { tickets: Vec<u64> },
    Result { ticket: u64, timeout_ms: Option<u64> },
    /// `timeout_ms` is a *whole-batch* deadline: each successive wait
    /// gets whatever remains of it, so the reply arrives within one
    /// timeout no matter how many tickets are queried.
    ResultBatch { tickets: Vec<u64>, timeout_ms: Option<u64> },
    Cancel { ticket: u64 },
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

    /// Renders the request as one JSON line (no trailing newline) —
    /// byte-identical to what pre-v2 clients sent for the non-batch verbs.
    pub fn encode_json(&self) -> String {
        match self {
            Request::Submit(item) => {
                let mut fields = vec![("verb", JsonField::Str("submit".to_owned()))];
                push_item_fields(&mut fields, item);
                json_object(&fields)
            }
            Request::SubmitBatch(items) => {
                let rendered: Vec<String> = items
                    .iter()
                    .map(|item| {
                        let mut fields = Vec::new();
                        push_item_fields(&mut fields, item);
                        json_object(&fields)
                    })
                    .collect();
                json_object(&[
                    ("verb", JsonField::Str("submit_batch".to_owned())),
                    ("items", JsonField::Raw(format!("[{}]", rendered.join(",")))),
                ])
            }
            Request::Status { ticket } => json_object(&[
                ("verb", JsonField::Str("status".to_owned())),
                ("ticket", JsonField::Int(*ticket)),
            ]),
            Request::StatusBatch { tickets } => json_object(&[
                ("verb", JsonField::Str("status_batch".to_owned())),
                ("tickets", JsonField::Raw(render_tickets(tickets))),
            ]),
            Request::Result { ticket, timeout_ms } => {
                let mut fields = vec![
                    ("verb", JsonField::Str("result".to_owned())),
                    ("ticket", JsonField::Int(*ticket)),
                ];
                if let Some(ms) = timeout_ms {
                    fields.push(("timeout_ms", JsonField::Int(*ms)));
                }
                json_object(&fields)
            }
            Request::ResultBatch { tickets, timeout_ms } => {
                let mut fields = vec![
                    ("verb", JsonField::Str("result_batch".to_owned())),
                    ("tickets", JsonField::Raw(render_tickets(tickets))),
                ];
                if let Some(ms) = timeout_ms {
                    fields.push(("timeout_ms", JsonField::Int(*ms)));
                }
                json_object(&fields)
            }
            Request::Cancel { ticket } => json_object(&[
                ("verb", JsonField::Str("cancel".to_owned())),
                ("ticket", JsonField::Int(*ticket)),
            ]),
            Request::Stats => json_object(&[("verb", JsonField::Str("stats".to_owned()))]),
            Request::Health => json_object(&[("verb", JsonField::Str("health".to_owned()))]),
            Request::NodeStats => {
                json_object(&[("verb", JsonField::Str("node_stats".to_owned()))])
            }
        }
    }

    /// Parses a request from its JSON object form. Errors carry the verb
    /// (when one was readable) so clients can tell which call misfired.
    pub fn decode_json(json: &Json) -> Result<Request, WireError> {
        let verb = json.get("verb").and_then(Json::as_str).unwrap_or("");
        match verb {
            "submit" => Ok(Request::Submit(decode_item(json, "submit")?)),
            "submit_batch" => {
                let Some(Json::Arr(items)) = json.get("items") else {
                    return Err(WireError::new(ErrorCode::BadRequest, "submit_batch")
                        .with_detail("`items` must be an array"));
                };
                check_batch_len(items.len(), "submit_batch")?;
                let items = items
                    .iter()
                    .map(|item| decode_item(item, "submit_batch"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::SubmitBatch(items))
            }
            "status" => Ok(Request::Status {
                ticket: require_ticket(json, "status")?,
            }),
            "status_batch" => Ok(Request::StatusBatch {
                tickets: decode_tickets(json, "status_batch")?,
            }),
            "result" => Ok(Request::Result {
                ticket: require_ticket(json, "result")?,
                timeout_ms: json.get("timeout_ms").and_then(Json::as_u64),
            }),
            "result_batch" => Ok(Request::ResultBatch {
                tickets: decode_tickets(json, "result_batch")?,
                timeout_ms: json.get("timeout_ms").and_then(Json::as_u64),
            }),
            "cancel" => Ok(Request::Cancel {
                ticket: require_ticket(json, "cancel")?,
            }),
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "node_stats" => Ok(Request::NodeStats),
            "" => Err(WireError::new(ErrorCode::BadRequest, "").with_detail("`verb` is required")),
            other => Err(WireError::new(ErrorCode::UnknownVerb, other.to_owned())
                .with_detail(format!("`{other}`"))),
        }
    }
}

fn push_item_fields(fields: &mut Vec<(&'static str, JsonField)>, item: &SubmitItem) {
    fields.push(("spec", JsonField::Str(item.spec.clone())));
    if let Some(priority) = &item.priority {
        fields.push(("priority", JsonField::Str(priority.clone())));
    }
    if let Some(ms) = item.deadline_ms {
        fields.push(("deadline_ms", JsonField::Int(ms)));
    }
    // Overload-control vocabulary: encoded only when set, so requests
    // from clients that never use it stay byte-identical to pre-v2.
    if let Some(client) = &item.client {
        fields.push(("client", JsonField::Str(client.clone())));
    }
    if item.allow_degraded {
        fields.push(("allow_degraded", JsonField::Raw("true".to_owned())));
    }
    if let Some(fidelity) = &item.min_fidelity {
        fields.push(("min_fidelity", JsonField::Str(fidelity.clone())));
    }
}

fn render_tickets(tickets: &[u64]) -> String {
    let rendered: Vec<String> = tickets.iter().map(|t| t.to_string()).collect();
    format!("[{}]", rendered.join(","))
}

fn decode_item(json: &Json, verb: &str) -> Result<SubmitItem, WireError> {
    let Some(spec) = json.get("spec").and_then(Json::as_str) else {
        return Err(WireError::new(ErrorCode::BadRequest, verb.to_owned())
            .with_detail("`spec` is required"));
    };
    Ok(SubmitItem {
        spec: spec.to_owned(),
        priority: json
            .get("priority")
            .and_then(Json::as_str)
            .map(str::to_owned),
        deadline_ms: json.get("deadline_ms").and_then(Json::as_u64),
        client: json.get("client").and_then(Json::as_str).map(str::to_owned),
        allow_degraded: json.get("allow_degraded").and_then(Json::as_bool) == Some(true),
        min_fidelity: json
            .get("min_fidelity")
            .and_then(Json::as_str)
            .map(str::to_owned),
    })
}

fn require_ticket(json: &Json, verb: &str) -> Result<u64, WireError> {
    json.get("ticket").and_then(Json::as_u64).ok_or_else(|| {
        WireError::new(ErrorCode::BadRequest, verb.to_owned())
            .with_detail("`ticket` must be a non-negative integer")
    })
}

fn decode_tickets(json: &Json, verb: &str) -> Result<Vec<u64>, WireError> {
    let Some(Json::Arr(entries)) = json.get("tickets") else {
        return Err(WireError::new(ErrorCode::BadRequest, verb.to_owned())
            .with_detail("`tickets` must be an array"));
    };
    check_batch_len(entries.len(), verb)?;
    entries
        .iter()
        .map(|entry| {
            entry.as_u64().ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, verb.to_owned())
                    .with_detail("`tickets` entries must be non-negative integers")
            })
        })
        .collect()
}

fn check_batch_len(len: usize, verb: &str) -> Result<(), WireError> {
    if len > MAX_BATCH_ITEMS {
        return Err(WireError::new(ErrorCode::BadRequest, verb.to_owned())
            .with_detail(format!("batch of {len} exceeds {MAX_BATCH_ITEMS} items")));
    }
    Ok(())
}

/// Stable machine-readable failure codes — the closed set behind both the
/// legacy `error` field and the new `code` field. Stringly construction
/// is gone: every error on the wire names one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    BadRequest,
    BadSpec,
    QueueFull,
    ShuttingDown,
    UnknownTicket,
    Timeout,
    UnknownVerb,
    NoBackend,
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
            .unwrap_or(ErrorCode::Unavailable)
    }

    /// Whether a client should retry the same request later. Derived
    /// from the code so the wire flag can never drift from the enum.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull | ErrorCode::Timeout | ErrorCode::NoBackend | ErrorCode::Unavailable
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

    /// JSON error shape. `error` leads (pre-v2 clients key on it), `code`
    /// mirrors it for new clients, `verb` names the failing call, and
    /// `retryable` appears exactly when the code is retryable.
    pub fn encode_json(&self) -> String {
        let mut fields = vec![
            ("ok", JsonField::Raw("false".to_owned())),
            ("error", JsonField::Str(self.code.as_str().to_owned())),
            ("code", JsonField::Str(self.code.as_str().to_owned())),
            ("verb", JsonField::Str(self.verb.clone())),
        ];
        if let Some(detail) = &self.detail {
            fields.push(("detail", JsonField::Str(detail.clone())));
        }
        if let Some(depth) = self.depth {
            fields.push(("depth", JsonField::Int(depth)));
        }
        if self.code.retryable() {
            fields.push(("retryable", JsonField::Raw("true".to_owned())));
        }
        json_object(&fields)
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
    Status { state: String },
    Outcome(OutcomeOk),
    Cancel { cancel: String },
    /// A pre-rendered JSON report line (`stats`, `health`, `node_stats`)
    /// carried verbatim — already contains `"ok":true`. The binary codec
    /// wraps the string; these verbs are off the hot path, so their
    /// payload stays the debuggable JSON either way.
    Report { json: String },
    /// One reply per batch-request item, in request order.
    Batch(Vec<Response>),
    Error(WireError),
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline),
    /// byte-identical to the pre-v2 wire for every non-batch shape.
    pub fn encode_json(&self) -> String {
        match self {
            Response::Submit(ok) => {
                let mut fields = vec![
                    ("ok", JsonField::Raw("true".to_owned())),
                    ("ticket", JsonField::Int(ok.ticket)),
                    ("job", JsonField::Str(ok.job.clone())),
                    ("disposition", JsonField::Str(ok.disposition.clone())),
                    ("depth", JsonField::Int(ok.depth)),
                ];
                if let Some(node) = ok.node {
                    fields.push(("node", JsonField::Int(node)));
                }
                if ok.edge {
                    fields.push(("edge", JsonField::Raw("true".to_owned())));
                }
                json_object(&fields)
            }
            Response::Status { state } => json_object(&[
                ("ok", JsonField::Raw("true".to_owned())),
                ("state", JsonField::Str(state.clone())),
            ]),
            Response::Outcome(ok) => {
                let mut fields = vec![
                    ("ok", JsonField::Raw("true".to_owned())),
                    ("outcome", JsonField::Str(ok.outcome.clone())),
                ];
                if let Some(detail) = &ok.detail {
                    fields.push(("detail", JsonField::Str(detail.clone())));
                }
                if let Some(ns) = ok.queue_ns {
                    fields.push(("queue_ns", JsonField::Int(ns)));
                }
                if let Some(ns) = ok.run_ns {
                    fields.push(("run_ns", JsonField::Int(ns)));
                }
                if let Some(body) = &ok.body {
                    fields.push(("result", JsonField::Raw(body.encode_json())));
                }
                json_object(&fields)
            }
            Response::Cancel { cancel } => json_object(&[
                ("ok", JsonField::Raw("true".to_owned())),
                ("cancel", JsonField::Str(cancel.clone())),
            ]),
            Response::Report { json } => json.clone(),
            Response::Batch(items) => {
                let rendered: Vec<String> = items.iter().map(Response::encode_json).collect();
                json_object(&[
                    ("ok", JsonField::Raw("true".to_owned())),
                    ("batch", JsonField::Raw(format!("[{}]", rendered.join(",")))),
                ])
            }
            Response::Error(err) => err.encode_json(),
        }
    }

    /// Recovers the typed response from a parsed JSON reply. `raw` is the
    /// original line, kept verbatim for report shapes so re-encoding is
    /// the identity. Unrecognized-but-well-formed replies also land in
    /// [`Response::Report`] — pass-through, never data loss.
    pub fn decode_json(json: &Json, raw: &str) -> Response {
        if json.get("ok").and_then(Json::as_bool) == Some(false) {
            return Response::Error(decode_error(json));
        }
        if let Some(Json::Arr(items)) = json.get("batch") {
            return Response::Batch(items.iter().map(decode_batch_item).collect());
        }
        match decode_known(json) {
            Some(response) => response,
            None => Response::Report {
                json: raw.to_owned(),
            },
        }
    }
}

fn decode_error(json: &Json) -> WireError {
    // `code` when present (v2 peers), else the legacy `error` field.
    let code = json
        .get("code")
        .or_else(|| json.get("error"))
        .and_then(Json::as_str)
        .map(ErrorCode::parse)
        .unwrap_or(ErrorCode::Unavailable);
    WireError {
        code,
        verb: json
            .get("verb")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        detail: json
            .get("detail")
            .and_then(Json::as_str)
            .map(str::to_owned),
        depth: json.get("depth").and_then(Json::as_u64),
    }
}

/// Decodes the shapes batch replies can carry (submit/status/outcome/
/// cancel/error). Report shapes never appear inside a batch, so an
/// unrecognized item is a protocol error, not a pass-through.
fn decode_batch_item(json: &Json) -> Response {
    if json.get("ok").and_then(Json::as_bool) == Some(false) {
        return Response::Error(decode_error(json));
    }
    match decode_known(json) {
        Some(response) => response,
        None => Response::Error(
            WireError::new(ErrorCode::BadRequest, "").with_detail("unrecognized batch item"),
        ),
    }
}

/// The self-identifying success shapes: submit (has `ticket` +
/// `disposition`), outcome, cancel, and plain status (`state` without a
/// `role`, which would make it a health report).
fn decode_known(json: &Json) -> Option<Response> {
    if let Some(outcome) = json.get("outcome").and_then(Json::as_str) {
        return Some(Response::Outcome(OutcomeOk {
            outcome: outcome.to_owned(),
            detail: json
                .get("detail")
                .and_then(Json::as_str)
                .map(str::to_owned),
            queue_ns: json.get("queue_ns").and_then(Json::as_u64),
            run_ns: json.get("run_ns").and_then(Json::as_u64),
            body: json.get("result").and_then(decode_body),
        }));
    }
    if let Some(cancel) = json.get("cancel").and_then(Json::as_str) {
        return Some(Response::Cancel {
            cancel: cancel.to_owned(),
        });
    }
    if json.get("ticket").is_some() && json.get("disposition").is_some() {
        return Some(Response::Submit(SubmitOk {
            ticket: json.get("ticket").and_then(Json::as_u64)?,
            job: json.get("job").and_then(Json::as_str)?.to_owned(),
            disposition: json.get("disposition").and_then(Json::as_str)?.to_owned(),
            depth: json.get("depth").and_then(Json::as_u64).unwrap_or(0),
            node: json.get("node").and_then(Json::as_u64),
            edge: json.get("edge").and_then(Json::as_bool) == Some(true),
        }));
    }
    if json.get("role").is_none() {
        if let Some(state) = json.get("state").and_then(Json::as_str) {
            return Some(Response::Status {
                state: state.to_owned(),
            });
        }
    }
    None
}

fn decode_body(json: &Json) -> Option<ResultBody> {
    Some(ResultBody {
        workload: json.get("workload").and_then(Json::as_str)?.to_owned(),
        mode: json.get("mode").and_then(Json::as_str)?.to_owned(),
        cycles: json.get("cycles").and_then(Json::as_u64)?,
        messages: json.get("messages").and_then(Json::as_u64)?,
        ipc: json.get("ipc").and_then(Json::as_f64)?,
        latency_mean: json.get("latency_mean").and_then(Json::as_f64)?,
        latency_count: json.get("latency_count").and_then(Json::as_u64)?,
        calibrations: json.get("calibrations").and_then(Json::as_u64)?,
        fidelity: json
            .get("fidelity")
            .and_then(Json::as_str)
            .map(str::to_owned),
        error_bound: json.get("error_bound").and_then(Json::as_f64),
    })
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

    /// The `result` sub-object, field order identical to the pre-v2 wire;
    /// the fidelity pair is appended at the end, and only when present,
    /// so untagged bodies re-encode byte-identically.
    pub fn encode_json(&self) -> String {
        let mut fields = vec![
            ("workload", JsonField::Str(self.workload.clone())),
            ("mode", JsonField::Str(self.mode.clone())),
            ("cycles", JsonField::Int(self.cycles)),
            ("messages", JsonField::Int(self.messages)),
            ("ipc", JsonField::Num(self.ipc)),
            ("latency_mean", JsonField::Num(self.latency_mean)),
            ("latency_count", JsonField::Int(self.latency_count)),
            ("calibrations", JsonField::Int(self.calibrations)),
        ];
        if let Some(fidelity) = &self.fidelity {
            fields.push(("fidelity", JsonField::Str(fidelity.clone())));
        }
        if let Some(bound) = self.error_bound {
            fields.push(("error_bound", JsonField::Num(bound)));
        }
        json_object(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_json_form() {
        let requests = [
            Request::Submit(
                SubmitItem::new("target=2x2 app=water")
                    .priority("high")
                    .deadline_ms(500),
            ),
            Request::Submit(
                SubmitItem::new("target=2x2 app=water")
                    .client("loadgen-3")
                    .allow_degraded(true)
                    .min_fidelity("calibrated"),
            ),
            Request::SubmitBatch(vec![
                SubmitItem::new("target=2x2 app=water"),
                SubmitItem::new("target=4x4 app=fft").priority("low"),
                SubmitItem::new("target=4x4 app=fft").allow_degraded(true),
            ]),
            Request::Status { ticket: 7 },
            Request::StatusBatch {
                tickets: vec![1, 2, 3],
            },
            Request::Result {
                ticket: 9,
                timeout_ms: Some(1000),
            },
            Request::ResultBatch {
                tickets: vec![4, 5],
                timeout_ms: None,
            },
            Request::Cancel { ticket: 2 },
            Request::Stats,
            Request::Health,
            Request::NodeStats,
        ];
        for request in requests {
            let line = request.encode_json();
            let json = Json::parse(&line).expect("encoded request parses");
            let back = Request::decode_json(&json).expect("decodes");
            assert_eq!(back, request, "{line}");
        }
    }

    #[test]
    fn error_json_keeps_the_legacy_error_field_first_and_adds_code_and_verb() {
        let err = WireError::new(ErrorCode::QueueFull, "submit").with_depth(5);
        let line = err.encode_json();
        assert!(
            line.starts_with(r#"{"ok":false,"error":"queue_full","code":"queue_full","verb":"submit""#),
            "{line}"
        );
        assert!(line.contains(r#""depth":5"#), "{line}");
        assert!(line.contains(r#""retryable":true"#), "{line}");

        let json = Json::parse(&line).unwrap();
        let Response::Error(back) = Response::decode_json(&json, &line) else {
            panic!("not an error: {line}");
        };
        assert_eq!(back, err);
    }

    #[test]
    fn unknown_error_codes_fold_to_unavailable_not_a_panic() {
        let line = r#"{"ok":false,"error":"heat_death","detail":"entropy"}"#;
        let json = Json::parse(line).unwrap();
        let Response::Error(err) = Response::decode_json(&json, line) else {
            panic!("not an error");
        };
        assert_eq!(err.code, ErrorCode::Unavailable);
        assert_eq!(err.detail.as_deref(), Some("entropy"));
    }

    #[test]
    fn responses_re_encode_to_the_exact_original_line() {
        // Every shape the old wire produced, rendered exactly as the old
        // wire rendered it: decode -> encode must be the identity.
        let lines = [
            r#"{"ok":true,"ticket":3,"job":"00000000000000aa","disposition":"enqueued","depth":2}"#,
            r#"{"ok":true,"ticket":4,"job":"00000000000000aa","disposition":"cached","depth":0,"edge":true}"#,
            r#"{"ok":true,"ticket":5,"job":"00000000000000aa","disposition":"coalesced","depth":1,"node":2}"#,
            r#"{"ok":true,"state":"running"}"#,
            r#"{"ok":true,"cancel":"signalled"}"#,
            r#"{"ok":true,"outcome":"failed","detail":"spec: boom"}"#,
            r#"{"ok":true,"outcome":"completed","queue_ns":12,"run_ns":34,"result":{"workload":"water","mode":"reciprocal","cycles":100000,"messages":512,"ipc":0.875,"latency_mean":14.25,"latency_count":512,"calibrations":4}}"#,
            r#"{"ok":true,"outcome":"completed","queue_ns":12,"run_ns":34,"result":{"workload":"water","mode":"reciprocal","cycles":100000,"messages":512,"ipc":0.875,"latency_mean":14.25,"latency_count":512,"calibrations":4,"fidelity":"calibrated","error_bound":0.15}}"#,
        ];
        for line in lines {
            let json = Json::parse(line).unwrap();
            let typed = Response::decode_json(&json, line);
            assert!(
                !matches!(typed, Response::Report { .. }),
                "shape not recognized: {line}"
            );
            assert_eq!(typed.encode_json(), line);
        }
    }

    #[test]
    fn report_shapes_pass_through_verbatim() {
        let health = r#"{"ok":true,"role":"backend","state":"up","queue_depth":0}"#;
        let json = Json::parse(health).unwrap();
        let typed = Response::decode_json(&json, health);
        assert!(matches!(typed, Response::Report { .. }), "{typed:?}");
        assert_eq!(typed.encode_json(), health);
    }

    #[test]
    fn batches_nest_and_round_trip() {
        let batch = Response::Batch(vec![
            Response::Status {
                state: "done".to_owned(),
            },
            Response::Error(WireError::new(ErrorCode::UnknownTicket, "status_batch")),
        ]);
        let line = batch.encode_json();
        let json = Json::parse(&line).unwrap();
        assert_eq!(Response::decode_json(&json, &line), batch);
    }

    #[test]
    fn oversized_batches_are_refused() {
        let tickets: Vec<String> = (0..MAX_BATCH_ITEMS as u64 + 1)
            .map(|t| t.to_string())
            .collect();
        let line = format!(
            r#"{{"verb":"status_batch","tickets":[{}]}}"#,
            tickets.join(",")
        );
        let json = Json::parse(&line).unwrap();
        let err = Request::decode_json(&json).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.verb, "status_batch");
    }
}

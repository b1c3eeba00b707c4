//! The service's wire layer: one typed dispatch path behind two codecs.
//!
//! # Protocol (v2)
//!
//! Every request is a [`Request`], every reply a [`Response`]
//! (`crate::proto`); [`dispatch`] is the single verb switch. Two
//! encodings carry the enums (`crate::codec`):
//!
//! * **JSON** — one object per line, byte-compatible with the pre-v2
//!   wire. The debuggable compat surface; old clients keep working.
//! * **Binary** — a compact TLV inside the journal's checksummed
//!   length-prefixed frames. The hot path for `ra-loadgen --binary` and
//!   relay→backend forwarding.
//!
//! The server never negotiates: it sniffs the first byte of each
//! connection (`{` = JSON, a hex length digit = binary) and the mode is
//! sticky. See `crate::codec` for the frame/TLV layout and DESIGN.md
//! "Wire protocol v2" for the full verb table.
//!
//! The verbs: `submit`, `status`, `result`, `cancel`, `stats`, `health`,
//! `node_stats`, plus the batched `submit_batch` / `status_batch` /
//! `result_batch`, which carry up to [`crate::proto::MAX_BATCH_ITEMS`]
//! items per round-trip and answer with one [`Response::Batch`] entry
//! per item in request order. A `result_batch` timeout is a whole-batch
//! deadline, not per item.
//!
//! Failures carry a stable machine-readable `code`, the offending
//! `verb`, and `retryable` derived from the code — notably `queue_full`,
//! the backpressure signal, which also reports the queue `depth` the
//! client collided with. Job keys travel as 16-hex-digit strings
//! (`"job"`): JSON numbers are f64 and cannot carry a u64 hash exactly.
//!
//! The server is deliberately boring: blocking `std::net` accept loop,
//! one thread per connection (jobs are coarse — each is a simulation —
//! so connection counts are small), [`JobService`] does all the real
//! work. [`WireClient`] is the matching blocking client used by
//! `ra-loadgen` and the integration tests; it speaks either codec.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ra_obs::{json_object, Event, JsonField};

use crate::codec::{BinaryCodec, Codec, JsonCodec};
use crate::frame::{self, FrameStep};
use crate::json::Json;
use crate::proto::{
    ErrorCode, OutcomeOk, Request, Response, ResultBody, SubmitItem, SubmitOk, WireError,
};
use crate::scheduler::{
    JobOutcome, JobService, Priority, Rejected, ServiceStats, SubmitParams, WaitError,
};
use crate::spec::{Fidelity, JobSpec};
use crate::store::ratio;

/// Renders `err` and its `source()` chain as `a: b: c`.
fn error_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cursor = err.source();
    while let Some(cause) = cursor {
        out.push_str(": ");
        out.push_str(&cause.to_string());
        cursor = cause.source();
    }
    out
}

pub(crate) fn ok_fields(mut fields: Vec<(&'static str, JsonField)>) -> String {
    fields.insert(0, ("ok", JsonField::Raw("true".into())));
    json_object(&fields)
}

fn outcome_ok(outcome: &JobOutcome) -> OutcomeOk {
    let mut ok = OutcomeOk {
        outcome: outcome.label().into(),
        detail: None,
        queue_ns: None,
        run_ns: None,
        body: None,
    };
    match outcome {
        JobOutcome::Completed {
            result,
            fidelity,
            error_bound,
            queue_ns,
            run_ns,
            ..
        } => {
            ok.queue_ns = Some(*queue_ns);
            ok.run_ns = Some(*run_ns);
            ok.body = Some(ResultBody::from_run(result, *fidelity, *error_bound));
        }
        JobOutcome::Failed { error } | JobOutcome::Poisoned { error } => {
            ok.detail = Some(error.clone())
        }
        JobOutcome::Cancelled | JobOutcome::DeadlineExpired | JobOutcome::DeadlineExceeded => {}
    }
    ok
}

/// Dispatches one typed request against the service — the single verb
/// switch behind both codecs and both server roles' backend halves.
/// Pure with respect to I/O, so unit tests drive the whole protocol
/// without sockets.
pub fn dispatch(service: &JobService, request: &Request) -> Response {
    match request {
        Request::Submit(item) => submit_one(service, item, "submit"),
        Request::SubmitBatch(items) => {
            service.obs().emit(|| Event::WireBatch {
                verb: "submit_batch".into(),
                items: items.len() as u64,
            });
            Response::Batch(
                items
                    .iter()
                    .map(|item| submit_one(service, item, "submit_batch"))
                    .collect(),
            )
        }
        Request::Status { ticket } => status_one(service, *ticket, "status"),
        Request::StatusBatch { tickets } => {
            service.obs().emit(|| Event::WireBatch {
                verb: "status_batch".into(),
                items: tickets.len() as u64,
            });
            Response::Batch(
                tickets
                    .iter()
                    .map(|&ticket| status_one(service, ticket, "status_batch"))
                    .collect(),
            )
        }
        Request::Result { ticket, timeout_ms } => result_one(
            service,
            *ticket,
            timeout_ms.map(Duration::from_millis),
            "result",
        ),
        Request::ResultBatch {
            tickets,
            timeout_ms,
        } => {
            service.obs().emit(|| Event::WireBatch {
                verb: "result_batch".into(),
                items: tickets.len() as u64,
            });
            // One deadline for the whole batch: each successive wait gets
            // whatever budget remains, so N tickets cannot stack N
            // timeouts.
            let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            Response::Batch(
                tickets
                    .iter()
                    .map(|&ticket| {
                        let left =
                            deadline.map(|d| d.saturating_duration_since(Instant::now()));
                        result_one(service, ticket, left, "result_batch")
                    })
                    .collect(),
            )
        }
        Request::Cancel { ticket } => match service.cancel(*ticket) {
            Some(outcome) => Response::Cancel {
                cancel: match outcome {
                    crate::scheduler::CancelOutcome::Cancelled => "cancelled",
                    crate::scheduler::CancelOutcome::Signalled => "signalled",
                    crate::scheduler::CancelOutcome::Detached => "detached",
                    crate::scheduler::CancelOutcome::AlreadyDone => "already_done",
                }
                .into(),
            },
            None => Response::Error(WireError::new(ErrorCode::UnknownTicket, "cancel")),
        },
        Request::Stats => {
            // A stats poll is a natural sync point: push any buffered
            // trace events to disk so `tail -f` and the CI smoke see a
            // complete stream without waiting for process exit.
            let _ = service.obs().flush();
            Response::Report {
                json: ok_fields(stats_fields(service)),
            }
        }
        Request::Health => {
            // The relay's probe verb: one lock, no flush — the probe
            // deadline is the health signal, so keep the path minimal.
            let stats = service.stats();
            Response::Report {
                json: ok_fields(vec![
                    ("role", JsonField::Str("backend".into())),
                    ("state", JsonField::Str("up".into())),
                    ("queue_depth", JsonField::Int(stats.queue_depth as u64)),
                ]),
            }
        }
        Request::NodeStats => {
            let mut fields = vec![("role", JsonField::Str("backend".into()))];
            fields.append(&mut stats_fields(service));
            Response::Report {
                json: ok_fields(fields),
            }
        }
    }
}

fn submit_one(service: &JobService, item: &SubmitItem, verb: &str) -> Response {
    // Parse, then preflight: a `trace:` workload's file must exist and
    // index cleanly, and rejecting it here (with the TraceError chained
    // into the detail) beats queueing a job doomed to fail.
    let parsed = item
        .spec
        .parse::<JobSpec>()
        .and_then(|spec| spec.preflight().map(|()| spec));
    let spec = match parsed {
        Ok(spec) => spec,
        Err(err) => {
            return Response::Error(
                WireError::new(ErrorCode::BadSpec, verb).with_detail(error_chain(&err)),
            )
        }
    };
    let priority = match &item.priority {
        None => Priority::Normal,
        Some(text) => match text.parse() {
            Ok(priority) => priority,
            Err(err) => {
                return Response::Error(
                    WireError::new(ErrorCode::BadRequest, verb).with_detail(err),
                )
            }
        },
    };
    let min_fidelity = match &item.min_fidelity {
        None => None,
        Some(text) => match text.parse::<Fidelity>() {
            Ok(fidelity) => Some(fidelity),
            Err(err) => {
                return Response::Error(
                    WireError::new(ErrorCode::BadRequest, verb).with_detail(err.to_string()),
                )
            }
        },
    };
    let params = SubmitParams {
        priority,
        deadline: item.deadline_ms.map(Duration::from_millis),
        client: item.client.clone(),
        allow_degraded: item.allow_degraded,
        min_fidelity,
    };
    match service.submit_with(spec, params) {
        Ok(receipt) => {
            let depth = match receipt.disposition {
                crate::scheduler::Disposition::Enqueued { depth } => depth as u64,
                _ => 0,
            };
            Response::Submit(SubmitOk {
                ticket: receipt.ticket,
                job: receipt.job.to_string(),
                disposition: receipt.disposition.label().into(),
                depth,
                node: None,
                edge: false,
            })
        }
        Err(Rejected::QueueFull { depth }) => Response::Error(
            WireError::new(ErrorCode::QueueFull, verb).with_depth(depth as u64),
        ),
        Err(Rejected::ShuttingDown) => {
            Response::Error(WireError::new(ErrorCode::ShuttingDown, verb))
        }
    }
}

fn status_one(service: &JobService, ticket: u64, verb: &str) -> Response {
    match service.status(ticket) {
        Some(status) => Response::Status {
            state: status.label().into(),
        },
        None => Response::Error(WireError::new(ErrorCode::UnknownTicket, verb)),
    }
}

fn result_one(
    service: &JobService,
    ticket: u64,
    timeout: Option<Duration>,
    verb: &str,
) -> Response {
    match service.wait(ticket, timeout) {
        Ok(outcome) => Response::Outcome(outcome_ok(&outcome)),
        Err(WaitError::TimedOut) => Response::Error(WireError::new(ErrorCode::Timeout, verb)),
        Err(WaitError::UnknownTicket) => {
            Response::Error(WireError::new(ErrorCode::UnknownTicket, verb))
        }
    }
}

/// Decodes one request, runs it through `dispatch_one` and encodes the
/// reply, codec framing included — the shared pipeline of both
/// connection modes, on the backend server and the relay.
fn answer(
    codec: &dyn Codec,
    payload: &[u8],
    dispatch_one: impl FnOnce(&Request) -> Response,
) -> Vec<u8> {
    let response = match codec.decode_request(payload) {
        Ok(request) => dispatch_one(&request),
        Err(err) => Response::Error(err),
    };
    codec.encode_response(&response)
}

/// Dispatches one request line to the service and renders the response
/// line (no trailing newline). The JSON compat surface, kept as the
/// sockets-free protocol entry point for tests and tooling.
pub fn handle_request(service: &JobService, line: &str) -> String {
    let reply = answer(&JsonCodec, line.as_bytes(), |request| {
        dispatch(service, request)
    });
    String::from_utf8_lossy(reply.strip_suffix(b"\n").unwrap_or(&reply)).into_owned()
}

/// The counter snapshot rendered by the `stats` and `node_stats` verbs.
fn stats_fields(service: &JobService) -> Vec<(&'static str, JsonField)> {
    let stats = service.stats();
    let mut fields: Vec<(&'static str, JsonField)> = ServiceStats::COUNTERS
        .iter()
        .map(|&(name, get, ..)| (name, JsonField::Int(get(&stats))))
        .collect();
    let memoized = stats.cache_hits + stats.coalesced;
    fields.push(("hit_ratio", JsonField::Num(stats.store.hit_ratio())));
    fields.push(("memo_ratio", JsonField::Num(ratio(memoized, stats.submitted))));
    fields
}

/// A bound, not-yet-running wire server.
pub struct WireServer {
    listener: TcpListener,
    service: Arc<JobService>,
    /// A connection that completes no request for this long is reaped.
    idle_timeout: Duration,
}

/// Default idle budget: generous for interactive clients, finite so a
/// stalled or half-open peer can never pin a connection thread forever.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// A request line larger than this is protocol abuse, not a request:
/// canonical specs are under 200 bytes.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// A binary frame larger than this is protocol abuse: even a maximal
/// submit batch of canonical specs fits with an order of magnitude to
/// spare.
const MAX_FRAME_BYTES: usize = 1024 * 1024;

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral test port) around an
    /// already-started service.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: JobService) -> io::Result<WireServer> {
        Ok(WireServer {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        })
    }

    /// Overrides the idle-connection budget (tests use millisecond
    /// values to exercise the reaper quickly).
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> WireServer {
        self.idle_timeout = idle_timeout;
        self
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread (the `ra-serve` bin's mode).
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept failure.
    pub fn run(self) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        self.accept_loop(&stop)
    }

    /// Serves on a background thread; the handle stops it cleanly.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = self.service.clone();
        let loop_stop = stop.clone();
        let thread = std::thread::Builder::new()
            .name("ra-serve-accept".into())
            .spawn(move || {
                let _ = self.accept_loop(&loop_stop);
            })
            .expect("spawn accept thread");
        Ok(ServerHandle {
            addr,
            stop,
            service,
            thread: Some(thread),
        })
    }

    fn accept_loop(self, stop: &AtomicBool) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(err) if err.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(err) => return Err(err),
            };
            let service = self.service.clone();
            let idle_timeout = self.idle_timeout;
            let _ = std::thread::Builder::new()
                .name("ra-serve-conn".into())
                .spawn(move || {
                    serve_stream(stream, idle_timeout, |request| {
                        dispatch(&service, request)
                    });
                });
        }
        Ok(())
    }
}

/// Which codec a connection sniffed to.
#[derive(Clone, Copy)]
enum Mode {
    Json,
    Binary,
}

/// Serves one connection until EOF, an I/O error, a damaged frame, or
/// the idle reaper — the shared loop behind both the backend server and
/// the relay.
///
/// The first byte of the connection picks the codec: `{` is a JSON
/// object, anything else is taken as the hex length digit of a binary
/// frame. The choice is sticky; a peer cannot switch codecs mid-stream.
/// In binary mode a malformed or checksum-failed frame hangs up the
/// connection immediately — past the first damaged frame there is no
/// way to resynchronize, exactly like the journal's recovery rule.
///
/// Each connection thread is its own reaper: the socket read timeout
/// ticks at a fraction of the idle budget, so the thread wakes even
/// when the peer sends nothing, measures how long it has been since a
/// complete request arrived, and hangs up once the budget is spent. A
/// slowloris trickling bytes without ever finishing a message — or a
/// half-open socket sending nothing at all — gets its thread back
/// within `idle_timeout` plus one tick. Time spent *serving* a request
/// (a blocking `result` wait) does not count as idle: the clock resets
/// when the response goes out.
pub(crate) fn serve_stream(
    stream: TcpStream,
    idle_timeout: Duration,
    mut dispatch_one: impl FnMut(&Request) -> Response,
) {
    let tick = (idle_timeout / 4).max(Duration::from_millis(10));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut pending: Vec<u8> = Vec::new();
    let mut mode: Option<Mode> = None;
    let mut idle_since = Instant::now();
    'conn: loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break, // clean EOF
            Ok(buf) => buf,
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_since.elapsed() >= idle_timeout {
                    break; // reaped: stalled or half-open peer
                }
                continue;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let take = buf.len();
        pending.extend_from_slice(buf);
        reader.consume(take);
        let mode = *mode.get_or_insert(if pending[0] == b'{' {
            Mode::Json
        } else {
            Mode::Binary
        });
        match mode {
            Mode::Json => {
                while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
                    let line_bytes: Vec<u8> = pending.drain(..=newline).collect();
                    let Ok(text) = std::str::from_utf8(&line_bytes[..newline]) else {
                        break 'conn;
                    };
                    let line = text.trim();
                    if !line.is_empty() {
                        let reply = answer(&JsonCodec, line.as_bytes(), &mut dispatch_one);
                        if writer
                            .write_all(&reply)
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            break 'conn;
                        }
                    }
                    idle_since = Instant::now();
                }
                if pending.len() > MAX_LINE_BYTES {
                    break; // unbounded line: abuse, not a request
                }
            }
            Mode::Binary => loop {
                match frame::step(&pending) {
                    FrameStep::Ok { payload, advance } => {
                        pending.drain(..advance);
                        let wire = answer(&BinaryCodec, &payload, &mut dispatch_one);
                        if writer
                            .write_all(&wire)
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            break 'conn;
                        }
                        idle_since = Instant::now();
                    }
                    FrameStep::Incomplete => {
                        if pending.len() > MAX_FRAME_BYTES {
                            break 'conn; // unbounded frame: abuse
                        }
                        break; // buffered; the idle clock keeps running
                    }
                    // No resync past a damaged frame: hang up, exactly
                    // like journal recovery stops at the first bad frame.
                    FrameStep::Malformed | FrameStep::BadChecksum => break 'conn,
                }
            },
        }
    }
}

/// Stops a [`WireServer::spawn`]ed server on drop (or explicitly).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<JobService>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service — what the `ra-serve` bin drives for
    /// graceful drain on SIGTERM.
    pub fn service(&self) -> Arc<JobService> {
        self.service.clone()
    }

    /// Signals the accept loop and joins it. Open connections finish
    /// their in-flight request and close on their own.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Blocking client for [`WireServer`] (used by `ra-loadgen`, the relay's
/// forward path, and the integration tests). Speaks JSON lines by
/// default; [`with_binary`](WireClient::with_binary) switches to the
/// framed binary codec — no handshake, the server sniffs per connection.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
    /// Unconsumed wire bytes past the last complete binary frame.
    pending: Vec<u8>,
    bytes_sent: u64,
    bytes_received: u64,
}

impl WireClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let writer = TcpStream::connect(addr)?;
        WireClient::from_stream(writer)
    }

    /// Connects with a bounded connect attempt — the relay's forward
    /// path must never hang on a dead backend's SYN queue.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures, including the timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<WireClient> {
        let writer = TcpStream::connect_timeout(addr, timeout)?;
        WireClient::from_stream(writer)
    }

    fn from_stream(writer: TcpStream) -> io::Result<WireClient> {
        let reader = BufReader::new(writer.try_clone()?);
        Ok(WireClient {
            reader,
            writer,
            binary: false,
            pending: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Selects the codec for all subsequent calls. Must not be flipped
    /// mid-connection: the server's sniffed mode is sticky.
    #[must_use]
    pub fn with_binary(mut self, binary: bool) -> WireClient {
        self.binary = binary;
        self
    }

    /// Whether this client speaks the binary codec.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Total request bytes put on the wire, framing included.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total response bytes taken off the wire, framing included.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Bounds every subsequent response read (the per-forward deadline).
    /// `None` restores blocking reads.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one typed request and reads its typed response — the
    /// codec-agnostic call every helper below goes through.
    ///
    /// # Errors
    ///
    /// I/O failures, server disconnect, or an undecodable response.
    pub fn call_request(&mut self, request: &Request) -> io::Result<Response> {
        if self.binary {
            let wire = BinaryCodec.encode_request(request);
            self.writer.write_all(&wire)?;
            self.writer.flush()?;
            self.bytes_sent += wire.len() as u64;
            let payload = self.read_frame()?;
            BinaryCodec.decode_response(&payload)
        } else {
            let wire = JsonCodec.encode_request(request);
            let line = String::from_utf8_lossy(wire.strip_suffix(b"\n").unwrap_or(&wire));
            let reply = self.call_raw(&line)?;
            JsonCodec.decode_response(reply.as_bytes())
        }
    }

    /// Reads one checksummed frame's payload off the binary wire.
    fn read_frame(&mut self) -> io::Result<Vec<u8>> {
        loop {
            match frame::step(&self.pending) {
                FrameStep::Ok { payload, advance } => {
                    self.pending.drain(..advance);
                    self.bytes_received += advance as u64;
                    return Ok(payload);
                }
                FrameStep::Incomplete => {
                    let buf = self.reader.fill_buf()?;
                    if buf.is_empty() {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    let take = buf.len();
                    self.pending.extend_from_slice(buf);
                    self.reader.consume(take);
                }
                FrameStep::Malformed | FrameStep::BadChecksum => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "damaged response frame",
                    ))
                }
            }
        }
    }

    /// Sends one request line and returns the raw response line (no
    /// trailing newline). JSON mode only.
    ///
    /// # Errors
    ///
    /// I/O failures or server disconnect; `InvalidInput` in binary mode.
    pub fn call_raw(&mut self, request: &str) -> io::Result<String> {
        if self.binary {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "call_raw speaks JSON lines; this client is binary",
            ));
        }
        writeln!(self.writer, "{request}")?;
        self.writer.flush()?;
        self.bytes_sent += request.len() as u64 + 1;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_received += line.len() as u64;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one request line and parses the one response line. JSON
    /// mode only.
    ///
    /// # Errors
    ///
    /// I/O failures, server disconnect, or an unparseable response.
    pub fn call(&mut self, request: &str) -> io::Result<Json> {
        let line = self.call_raw(request)?;
        Json::parse(&line).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {err}"))
        })
    }

    /// Runs a typed request and hands back the response as parsed JSON —
    /// identical view under either codec, so every legacy call site
    /// works unchanged in binary mode.
    fn call_verb(&mut self, request: &Request) -> io::Result<Json> {
        let reply = JsonCodec.encode_response(&self.call_request(request)?);
        Json::parse(&String::from_utf8_lossy(&reply)).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {err}"))
        })
    }

    /// Runs a typed batch request and unwraps the per-item responses.
    fn call_batch(&mut self, request: &Request) -> io::Result<Vec<Response>> {
        match self.call_request(request)? {
            Response::Batch(items) => Ok(items),
            Response::Error(err) => Err(io::Error::other(format!(
                "{} failed: {}{}",
                request.verb(),
                err.code.as_str(),
                err.detail.map(|d| format!(" ({d})")).unwrap_or_default()
            ))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a batch response, got {other:?}"),
            )),
        }
    }

    /// `submit` with optional priority/deadline.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn submit(
        &mut self,
        spec: &str,
        priority: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> io::Result<Json> {
        let mut item = SubmitItem::new(spec);
        item.priority = priority.map(str::to_owned);
        item.deadline_ms = deadline_ms;
        self.submit_item(item)
    }

    /// `submit` with the full item vocabulary — the way to set the
    /// overload-control knobs (`client`, `allow_degraded`,
    /// `min_fidelity`) on a single submission.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn submit_item(&mut self, item: SubmitItem) -> io::Result<Json> {
        self.call_verb(&Request::Submit(item))
    }

    /// `submit_batch`: up to [`crate::proto::MAX_BATCH_ITEMS`] specs in
    /// one round-trip; one response per item, in order.
    ///
    /// # Errors
    ///
    /// See [`call_request`](WireClient::call_request); also errors when
    /// the whole batch (not an item) was refused.
    pub fn submit_batch(&mut self, items: Vec<SubmitItem>) -> io::Result<Vec<Response>> {
        self.call_batch(&Request::SubmitBatch(items))
    }

    /// `status` for a ticket.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn status(&mut self, ticket: u64) -> io::Result<Json> {
        self.call_verb(&Request::Status { ticket })
    }

    /// `status_batch` for many tickets in one round-trip.
    ///
    /// # Errors
    ///
    /// See [`submit_batch`](WireClient::submit_batch).
    pub fn status_batch(&mut self, tickets: Vec<u64>) -> io::Result<Vec<Response>> {
        self.call_batch(&Request::StatusBatch { tickets })
    }

    /// `result` for a ticket, blocking up to `timeout_ms` (forever when
    /// `None`).
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn result(&mut self, ticket: u64, timeout_ms: Option<u64>) -> io::Result<Json> {
        self.call_verb(&Request::Result { ticket, timeout_ms })
    }

    /// `result_batch`: collects many tickets in one round-trip under one
    /// whole-batch deadline.
    ///
    /// # Errors
    ///
    /// See [`submit_batch`](WireClient::submit_batch).
    pub fn result_batch(
        &mut self,
        tickets: Vec<u64>,
        timeout_ms: Option<u64>,
    ) -> io::Result<Vec<Response>> {
        self.call_batch(&Request::ResultBatch {
            tickets,
            timeout_ms,
        })
    }

    /// `cancel` for a ticket.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn cancel(&mut self, ticket: u64) -> io::Result<Json> {
        self.call_verb(&Request::Cancel { ticket })
    }

    /// `stats` snapshot.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn stats(&mut self) -> io::Result<Json> {
        self.call_verb(&Request::Stats)
    }

    /// `health` probe.
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn health(&mut self) -> io::Result<Json> {
        self.call_verb(&Request::Health)
    }

    /// `node_stats` snapshot (per-node breakdown when the peer is a
    /// relay; `stats` plus identity when it is a backend).
    ///
    /// # Errors
    ///
    /// See [`call`](WireClient::call).
    pub fn node_stats(&mut self) -> io::Result<Json> {
        self.call_verb(&Request::NodeStats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;

    fn tiny_service() -> JobService {
        JobService::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ra_obs::ObsSink::disabled(),
        )
        .expect("service starts")
    }

    const SPEC: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";

    #[test]
    fn handle_request_speaks_the_protocol_without_sockets() {
        let service = tiny_service();
        let submit = format!(r#"{{"verb":"submit","spec":"{SPEC}"}}"#);
        let response = Json::parse(&handle_request(&service, &submit)).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            response.get("disposition").and_then(Json::as_str),
            Some("enqueued")
        );
        let ticket = response.get("ticket").and_then(Json::as_u64).unwrap();
        let job = response.get("job").and_then(Json::as_str).unwrap();
        assert_eq!(job.len(), 16, "job keys are 16 hex digits, got `{job}`");

        let result = format!(r#"{{"verb":"result","ticket":{ticket}}}"#);
        let response = Json::parse(&handle_request(&service, &result)).unwrap();
        assert_eq!(
            response.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        let body = response.get("result").expect("result body");
        assert_eq!(body.get("workload").and_then(Json::as_str), Some("water"));
        assert!(body.get("cycles").and_then(Json::as_u64).unwrap() > 0);

        // Same spec again: a cache hit, ready immediately.
        let response = Json::parse(&handle_request(&service, &submit)).unwrap();
        assert_eq!(
            response.get("disposition").and_then(Json::as_str),
            Some("cached")
        );
        service.shutdown();
    }

    #[test]
    fn empty_batches_answer_an_empty_batch() {
        let service = tiny_service();
        for request in [
            r#"{"verb":"submit_batch","items":[]}"#,
            r#"{"verb":"status_batch","tickets":[]}"#,
            r#"{"verb":"result_batch","tickets":[]}"#,
        ] {
            assert_eq!(
                handle_request(&service, request),
                r#"{"ok":true,"batch":[]}"#,
                "{request}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let service = tiny_service();
        for (request, code) in [
            ("not json", "bad_request"),
            (r#"{"spec":"x"}"#, "bad_request"),
            (r#"{"verb":"frobnicate"}"#, "unknown_verb"),
            (r#"{"verb":"submit"}"#, "bad_request"),
            (r#"{"verb":"submit","spec":"target=4x4 app=water mode=warp"}"#, "bad_spec"),
            (r#"{"verb":"status","ticket":-1}"#, "bad_request"),
            (r#"{"verb":"result","ticket":999999}"#, "unknown_ticket"),
            (r#"{"verb":"cancel","ticket":999999}"#, "unknown_ticket"),
        ] {
            let response = Json::parse(&handle_request(&service, request)).unwrap();
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(false),
                "{request}"
            );
            assert_eq!(
                response.get("error").and_then(Json::as_str),
                Some(code),
                "{request}"
            );
            // Satellite of the v2 redesign: every error names a stable
            // machine-readable code (mirroring `error`) and the verb.
            assert_eq!(
                response.get("code").and_then(Json::as_str),
                Some(code),
                "{request}"
            );
            assert!(response.get("verb").is_some(), "{request}");
        }
        // The mode failure surfaces the ParseModeError chain and the
        // offending verb.
        let response = Json::parse(&handle_request(
            &service,
            r#"{"verb":"submit","spec":"target=4x4 app=water mode=warp"}"#,
        ))
        .unwrap();
        let detail = response.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("unknown mode `warp`"), "detail: {detail}");
        assert_eq!(response.get("verb").and_then(Json::as_str), Some("submit"));
        service.shutdown();
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let server = WireServer::bind("127.0.0.1:0", tiny_service()).unwrap();
        let handle = server.spawn().unwrap();
        let mut client = WireClient::connect(handle.addr()).unwrap();

        let response = client.submit(SPEC, Some("high"), None).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let ticket = response.get("ticket").and_then(Json::as_u64).unwrap();

        let response = client.result(ticket, Some(30_000)).unwrap();
        assert_eq!(
            response.get("outcome").and_then(Json::as_str),
            Some("completed")
        );

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));

        // A second connection sees the same service (and its cache).
        let mut second = WireClient::connect(handle.addr()).unwrap();
        let response = second.submit(SPEC, None, None).unwrap();
        assert_eq!(
            response.get("disposition").and_then(Json::as_str),
            Some("cached")
        );
        handle.stop();
    }

    #[test]
    fn binary_clients_sniff_onto_the_same_server_as_json_ones() {
        let server = WireServer::bind("127.0.0.1:0", tiny_service()).unwrap();
        let handle = server.spawn().unwrap();

        // Binary connection first: submit and collect.
        let mut binary = WireClient::connect(handle.addr()).unwrap().with_binary(true);
        let response = binary.submit(SPEC, Some("high"), None).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let ticket = response.get("ticket").and_then(Json::as_u64).unwrap();
        let outcome = binary.result(ticket, Some(30_000)).unwrap();
        assert_eq!(
            outcome.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        assert!(binary.bytes_sent() > 0 && binary.bytes_received() > 0);

        // A JSON connection to the same server sees the same cache.
        let mut json = WireClient::connect(handle.addr()).unwrap();
        let response = json.submit(SPEC, None, None).unwrap();
        assert_eq!(
            response.get("disposition").and_then(Json::as_str),
            Some("cached")
        );
        handle.stop();
    }

    #[test]
    fn batch_verbs_answer_item_per_item_in_order() {
        for binary in [false, true] {
            let server = WireServer::bind("127.0.0.1:0", tiny_service()).unwrap();
            let handle = server.spawn().unwrap();
            let mut client = WireClient::connect(handle.addr())
                .unwrap()
                .with_binary(binary);

            let items = vec![
                SubmitItem::new(SPEC),
                SubmitItem::new(format!("{SPEC} seed=1")),
                SubmitItem::new("not a spec"),
            ];
            let responses = client.submit_batch(items).unwrap();
            assert_eq!(responses.len(), 3, "binary={binary}");
            let mut tickets = Vec::new();
            for response in &responses[..2] {
                let Response::Submit(ok) = response else {
                    panic!("binary={binary}: {response:?}");
                };
                tickets.push(ok.ticket);
            }
            let Response::Error(err) = &responses[2] else {
                panic!("binary={binary}: bad spec must fail per-item");
            };
            assert_eq!(err.code, ErrorCode::BadSpec);
            assert_eq!(err.verb, "submit_batch");

            let outcomes = client
                .result_batch(tickets.clone(), Some(30_000))
                .unwrap();
            assert_eq!(outcomes.len(), 2);
            for outcome in &outcomes {
                let Response::Outcome(ok) = outcome else {
                    panic!("binary={binary}: {outcome:?}");
                };
                assert_eq!(ok.outcome, "completed");
            }

            // Collected tickets are spent; a never-issued one is too.
            let states = client.status_batch(vec![tickets[0], 999_999]).unwrap();
            for state in &states {
                assert!(
                    matches!(state, Response::Error(err) if err.code == ErrorCode::UnknownTicket),
                    "binary={binary}: {state:?}"
                );
            }
            handle.stop();
        }
    }

    #[test]
    fn a_damaged_binary_frame_hangs_up_the_connection() {
        let server = WireServer::bind("127.0.0.1:0", tiny_service()).unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut wire = BinaryCodec.encode_request(&Request::Health);
        let flip = wire.len() - 2; // corrupt the payload, keep the header
        wire[flip] ^= 0x01;
        stream.write_all(&wire).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let read = io::Read::read_to_end(&mut stream, &mut sink);
        assert!(matches!(read, Ok(0)), "expected hangup, got {read:?}");
        assert!(sink.is_empty(), "no response may precede the hangup");

        // The service survives for well-formed clients.
        let mut client = WireClient::connect(handle.addr()).unwrap().with_binary(true);
        let health = client.health().unwrap();
        assert_eq!(health.get("state").and_then(Json::as_str), Some("up"));
        handle.stop();
    }

    #[test]
    fn health_and_node_stats_verbs_answer() {
        let service = tiny_service();
        let health =
            Json::parse(&handle_request(&service, r#"{"verb":"health"}"#)).unwrap();
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("role").and_then(Json::as_str), Some("backend"));
        assert_eq!(health.get("state").and_then(Json::as_str), Some("up"));
        assert_eq!(health.get("queue_depth").and_then(Json::as_u64), Some(0));

        let node = Json::parse(&handle_request(&service, r#"{"verb":"node_stats"}"#))
            .unwrap();
        assert_eq!(node.get("role").and_then(Json::as_str), Some("backend"));
        assert_eq!(node.get("submitted").and_then(Json::as_u64), Some(0));
        service.shutdown();
    }

    #[test]
    fn a_half_open_connection_is_reaped_and_service_continues() {
        let server = WireServer::bind("127.0.0.1:0", tiny_service())
            .unwrap()
            .with_idle_timeout(Duration::from_millis(200));
        let handle = server.spawn().unwrap();

        // A slowloris: connects, dribbles half a request, never finishes
        // the line and never hangs up.
        let mut stalled = TcpStream::connect(handle.addr()).unwrap();
        stalled.write_all(b"{\"verb\":\"sub").unwrap();
        stalled.flush().unwrap();

        // The server must hang up on its own within the idle budget.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let start = Instant::now();
        let read = io::Read::read_to_end(&mut stalled, &mut sink);
        assert!(
            matches!(read, Ok(0)),
            "expected server-side close (EOF), got {read:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "reaper did not fire within the idle budget"
        );

        // The reaped connection cost the server nothing: a fresh,
        // well-behaved client is served normally.
        let mut client = WireClient::connect(handle.addr()).unwrap();
        let response = client.submit(SPEC, None, None).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        handle.stop();
    }

    #[test]
    fn an_unbounded_request_line_is_cut_off() {
        let server = WireServer::bind("127.0.0.1:0", tiny_service())
            .unwrap()
            .with_idle_timeout(Duration::from_secs(30));
        let handle = server.spawn().unwrap();
        let mut abuser = TcpStream::connect(handle.addr()).unwrap();
        // Pump newline-free bytes well past MAX_LINE_BYTES; the server
        // must hang up rather than buffer without bound. The write side
        // may observe the reset as an error mid-stream — both shapes
        // (error or EOF on read) prove the hangup. Lead with `{` so the
        // connection sniffs as JSON.
        let mut chunk = [b'x'; 4096];
        chunk[0] = b'{';
        let mut closed = false;
        for _ in 0..((MAX_LINE_BYTES / chunk.len()) + 4) {
            if abuser.write_all(&chunk).and_then(|()| abuser.flush()).is_err() {
                closed = true;
                break;
            }
        }
        if !closed {
            abuser
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut sink = Vec::new();
            closed = matches!(io::Read::read_to_end(&mut abuser, &mut sink), Ok(0) | Err(_));
        }
        assert!(closed, "server kept a >64KiB line buffered");
        handle.stop();
    }

    /// A 64,000-byte line nesting `[` under one object (it leads with `{`
    /// to sniff as JSON), under `MAX_LINE_BYTES`, once aborted the whole
    /// process on a stack overflow in the connection's thread. It is a
    /// `bad_request`, and the server answers `health` afterwards.
    #[test]
    fn a_deeply_nested_line_is_refused_and_the_server_lives_on() {
        let handle = WireServer::bind("127.0.0.1:0", tiny_service())
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = WireClient::connect(handle.addr()).unwrap();
        let line = format!(r#"{{"x":{}"#, "[".repeat(63_995));
        let reply = client.call(&line).unwrap();
        assert_eq!(reply.get("code").and_then(Json::as_str), Some("bad_request"));
        let health = WireClient::connect(handle.addr()).unwrap().health().unwrap();
        assert_eq!(health.get("state").and_then(Json::as_str), Some("up"));
        handle.stop();
    }
}
